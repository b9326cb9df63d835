"""Community detection with proven modularity upper bounds.

Find a high-modularity partition of a weighted network, then construct a
machine-checkable certificate bounding the modularity of *every* partition.
When bound and achieved value coincide the partition is provably optimal.
"""

__version__ = "0.1.0"

from .graph import GraphError, Network, build_network
from .scores import Partition, ScoreMatrix, modularity_of_assignment, score_matrix, trivial_upper_bound
from .brute import brute_force_max
from .optimizer import optimize
from .chains import (
    chain_component,
    find_penalized_chains,
    greedy_certify,
    has_remaining_penalized_chain,
)
from .subnets import (
    ResolvedSubnetwork,
    Subnetwork,
    enumerate_subnetworks,
    partial_brute_force,
    reduce_weights,
)
from .lp import CombinedCertificate, LinearProgram, combine, solve_lp
from .verify import verify_certificate
from .document import CertificateDocument, network_fingerprint
from .pipeline import certify
from .generator import generate_planted
