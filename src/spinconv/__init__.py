"""Small-CNN toolkit: split dropout training and rotation-pooling convolutions.

The package imports no submodule, so that the CLI can pin thread-count
environment variables before numpy is first imported.
"""

__version__ = "0.1.0"
