"""swaplab: desk-scale simulation lab for swap-test distance estimation,
decision-error bounds, and epsilon-graph construction.

The API is six modules, imported by name; the package itself binds no
other public name:

- ``swaplab.statevec``: the state-vector simulator;
- ``swaplab.circuits``: circuit builders, resource counts and the pair map;
- ``swaplab.stats``: decision statistics, the exact tail and its bounds;
- ``swaplab.egraph``: point clouds and the three epsilon-graph constructors;
- ``swaplab.harness``: the experiment runners and report writers;
- ``swaplab.cli``: the command-line entry point.

``import swaplab`` loads none of them (nor numpy); ``import swaplab.cli``
loads all six.
"""

__version__ = "0.1.0"
