"""Numerical witnesses for the training math.

First: the hand-derived backpropagation agrees with central finite
differences on both adversarial losses. Second: the discriminator's
pointwise optimum has a closed form, confirmed by ternary search on the
objective, including the weighted variant.
"""

import numpy as np

from matchgan import nn

rng = np.random.default_rng(0)

# --- gradients vs finite differences ---------------------------------------
gen = nn.init_mlp((4, 3, 1), rng)
disc = nn.init_mlp((5, 3, 1), rng)
for m in (gen, disc):  # move off the zeroed output layer for a generic point
    m.weights[-1][...] = rng.uniform(-0.5, 0.5, size=m.weights[-1].shape)
    m.biases[-1][...] = rng.uniform(-0.5, 0.5, size=m.biases[-1].shape)
X = rng.random((6, 4))

# the calls a training step makes, each on the Buffers of its model: the
# generator's rows, its recording pass, the discriminator's input
# [X | G(X)], then the gradient
g_buf, s_buf = nn.Buffers(gen, len(X)), nn.Buffers(disc, len(X))
g_buf.x[...] = X
nn.forward_pass(g_buf)
s_buf.x[:, :-1] = X
s_buf.x[:, -1] = g_buf.out
grad = nn.generator_backward(g_buf, s_buf)
h = 1e-5
w = gen.weights[0]
analytic = gen.layer_blocks(grad)[0][0, 0]  # the gradient entry of w[0, 0]
w[0, 0] += h
up = nn.generator_loss(nn.forward_batch(disc, np.hstack([X, nn.forward_batch(gen, X)[:, None]])))
w[0, 0] -= 2 * h
down = nn.generator_loss(nn.forward_batch(disc, np.hstack([X, nn.forward_batch(gen, X)[:, None]])))
w[0, 0] += h
numeric = (up - down) / (2 * h)
print("generator loss gradient, one weight:")
print(f"  analytic {analytic:+.10f}")
print(f"  numeric  {numeric:+.10f}")
print(f"  |difference| {abs(analytic - numeric):.2e}")

# --- closed-form pointwise optimum vs search --------------------------------
# At each support point the objective w*p_real*log(d) + p_gen*log(1-d) is
# concave in d, with maximizer w*p_real / (w*p_real + p_gen). Ternary search
# finds the maximizer without that formula.
def search_optimum(p_real, p_gen, weight, lo=1e-9, hi=1.0 - 1e-9):
    def objective(d):
        return weight * p_real * np.log(d) + p_gen * np.log(1.0 - d)

    for _ in range(200):
        third = (hi - lo) / 3.0
        a, b = lo + third, hi - third
        if objective(a) < objective(b):
            lo = a
        else:
            hi = b
    return 0.5 * (lo + hi)


print("\npointwise discriminator optimum (closed form vs ternary search):")
points = ["low/low", "high/high", "mixed"]
p_real, p_generated = [0.6, 0.3, 0.1], [0.2, 0.3, 0.5]
for weight in (0.5, 1.0, 2.0):
    print(f"  weight {weight}:")
    for point, p_d, p_g in zip(points, p_real, p_generated):
        closed = weight * p_d / (weight * p_d + p_g)
        numeric = search_optimum(p_d, p_g, weight)
        print(f"    {point:>9}: closed {closed:.8f}  search {numeric:.8f}  gap {abs(closed-numeric):.1e}")

print("\nwhere real and generated mass agree, the optimum is exactly 1/2:")
closed, numeric = 1.0 / (1.0 + 1.0), search_optimum(1.0, 1.0, 1.0)
print(f"  closed {closed}, search {numeric:.8f}")
