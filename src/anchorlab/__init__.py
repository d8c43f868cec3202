"""anchorlab: tabular policy-optimization lab for anchored ratio rectification.

Submodules:

* ``policy``     dense (C, V) softmax policy tables, sampling, serialization
* ``gradients``  closed-form logit gradients + finite-difference oracle
* ``anchor``     safe manifold, exclusive anchor set, anchor-ratio gradient
* ``objectives`` method surrogates (grpo / grpo_kl / error-only KL / nsr / apo)
* ``dynamics``   collapse and recovery scenario harnesses
* ``env``        synthetic reasoning trees with verifiable rewards
* ``trainer``    grouped on-policy training loop
* ``metrics``    pass rates, entropy, diversity, support coverage
* ``cli``        experiment runner front end
"""

__version__ = "0.1.0"
