"""Bridge child for phase C of the accompany workload: load a saved n-gram
model and answer ``anticipate.bridge`` requests on stdin/stdout until EOF.

Usage: python3 bench/serve_model.py SRC_DIR MODEL_PATH
"""

import sys

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from anticipate.bridge import serve
    from anticipate.predictor import NGramModel

    serve(NGramModel.load(sys.argv[2]), sys.stdin, sys.stdout)
