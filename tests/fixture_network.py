"""The network that the seeded test instances and the acceptance suite are drawn on."""
from rscf.config import ExperimentConfig

# threshold AP selection with shared-AP clustering; every other key at its default
FIXTURE = ExperimentConfig(selection="threshold", cluster_mode="auto")
