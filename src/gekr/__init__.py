"""Lower bounds, verification, and randomized construction of binary
arrays with the generalized EKR triple-coverage property.

Each public name is imported from the module that defines it, as in
`from gekr.bounds import nu`; `import gekr` loads no submodule."""

__version__ = "0.1.0"
