"""texcurve: polynomial curves packed into texel grids, evaluated through a
bit-exact emulation of GPU fixed-function linear texture filtering."""

from .core import (
    ChannelMismatchError,
    ControlPolygon,
    DomainError,
    EncodedCurve,
    HomogeneousDivideError,
    JoinError,
    Layout,
    LayoutError,
    RangeError,
    SamplerConfig,
    TexCurveError,
    TexelFormat,
    TexelGrid,
    UnsupportedDegreeError,
    ValueTransform,
    lerp,
    quantize_texel,
    remap_unit_to_texel_span,
)
from .sampler import SampleTrace, quantize_fraction, sample_bilinear, sample_trilinear
from .reference import (
    BSplineCurve,
    SeilerTerms,
    bernstein_to_power,
    boehm_to_bezier,
    elevate_degree,
    eval_bernstein,
    eval_bezier_chain,
    eval_bezier_segments,
    eval_deboor,
    eval_decasteljau,
    eval_rational,
    eval_seiler,
    eval_tensor_surface,
    insert_knot,
    power_to_bernstein,
    seiler_terms,
)
from .encoder import (
    encode_bicubic_rgba,
    encode_bilinear_patch,
    encode_dc_cubic,
    encode_dc_quadratic,
    encode_dc_zigzag,
    encode_rational,
    encode_seiler,
    fit_range,
    zigzag_residuals,
)
from .texeval import (
    eval_bicubic_rgba,
    eval_bilinear_patch,
    eval_dc,
    eval_dc_cubic_hybrid,
    eval_dc_zigzag,
    eval_rational_tex,
    eval_seiler_tex,
)
from .analysis import ErrorReport, error_bound_estimate, render_deviation_image, sweep
from .container import read_ctex, write_ctex

__version__ = "0.1.0"
