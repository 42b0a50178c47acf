"""Self-constructive system energy modeling toolkit.

Simulates a mobile system's power draw and smart-battery interface, then
reconstructs high-rate energy models from the coarse, noisy battery
readings: stretch to an accurate low-rate training set, transform the
predictors with PCA, fit by total least squares, and fold the fit into
one affine model on predictor rates that applies unchanged at high
rates. A model manager monitors the active model and rebuilds it when a
configuration or usage change degrades it.
"""

from .battery import (
    BatteryInterfaceModel,
    BatteryReadings,
    rms_relative_error,
    sample_interface,
)
from .collector import DesignMatrix, aggregate_response, collect
from .constructor import (
    EnergyModel,
    PCABasis,
    RegressogramModel,
    build_model,
    fit_ols,
    fit_regressogram,
    fit_tls,
    iterate_construction,
    pca_transform,
    predict_regressogram,
    stretch,
)
from .manager import (
    ConfigurationKey,
    ModelTable,
    install_model,
    load,
    lookup_or_create,
    maybe_rebuild,
    monitor,
    persist,
)
from .tracesim import (
    Component,
    ComponentStateModel,
    MarkovChain,
    Phase,
    PredictorSpec,
    Schedule,
    Trace,
    WorkloadSpec,
    gen_trace,
    true_energy,
)

__version__ = "0.1.0"
