"""Order-revealing encryption with strongly correct comparison, and the
learning-theoretic experiments it enables: encrypted-threshold PAC
learning, example-reidentification tracing, indistinguishability games,
statistical-query learning, and signature-validity concepts.
"""

__version__ = "0.1.0"
