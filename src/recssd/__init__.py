"""recssd: discrete-event simulator and design-space explorer for in-storage
recommendation inference."""

from .kernel_search import (ResourceModel, SearchOutcome, SearchSpace, StageTimes,
                            estimate_times, resource_usage, search, verify_constraints)
from .mlp_engine import KernelAssignment, PipelineSchedule, fc_cycles, pipeline_schedule
from .recmodel import (EmbeddingTable, Model, ModelSpec, Query, TableSpec, Workload,
                       WorkloadConfig, build_model, desk_model_spec, ev_lookup_sum,
                       generate_workload, mlp_forward, reference_inference)
from .sim import Metrics, Scenario, compare, metrics_json, run
from .storage import Durations, SsdGeometry, TimingParams, page_location

__version__ = "0.1.0"
