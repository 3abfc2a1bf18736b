"""Compressor running cost.

The machine is externally powered (equal in/out flux); its shaft power
is modelled as isothermal compression work per unit mass times the mass
flow, P = q A c^2 ln(p_out/p_in).  The running cost rate is
d0*[p_out > p_in] + d1*P + d2*P^2 with P in MW.
"""

from __future__ import annotations

import numpy as np

from .model import CompressorCostModel

WATT_PER_MEGAWATT = 1.0e6


def cost_rate(p_in, p_out, q, area, model: CompressorCostModel,
              sound_speed_sq):
    """(c, dc/dp_in, dc/dp_out, dc/dq) element-wise over array inputs.

    No domain checks: callers pass p_out >= p_in > 0.  The fixed cost d0
    applies only while the machine lifts (p_out > p_in).
    """
    c = area * sound_speed_sq
    log_ratio = np.log(p_out / p_in)
    power_mw = q * c * log_ratio / WATT_PER_MEGAWATT
    fixed = model.d0 * (p_out > p_in)
    rate = fixed + model.d1 * power_mw + model.d2 * power_mw**2
    slope = (model.d1 + 2.0 * model.d2 * power_mw) / WATT_PER_MEGAWATT
    return rate, slope * (-q * c / p_in), slope * (q * c / p_out), \
        slope * (c * log_ratio)
