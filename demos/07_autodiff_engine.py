#!/usr/bin/env python3
"""The differentiation core on its own: tape, gradients, checking, Adam.

The engine records primitive operations during the forward pass and plays
them backwards to accumulate exact gradients. A built-in central-difference
checker validates any scalar program against its reverse-mode gradients.
"""

import numpy as np

from omniair import autodiff as ad
from omniair.autodiff import Tensor, grad_check
from omniair.optim import Adam

print("== A small tape program and its gradients ==")
w = Tensor(np.array([[0.5, -0.3], [0.8, 0.1]]), requires_grad=True)
b = Tensor(np.array([0.1, -0.2]), requires_grad=True)
x = Tensor(np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]]))
loss = ad.tanh(ad.matmul(x, w) + b).sum()
loss.backward()
print(f"loss = {loss.item():.6f}")
print(f"dL/dw =\n{np.round(w.grad, 4)}")
print(f"dL/db = {np.round(b.grad, 4)}")

print("\n== Central-difference check of a composite program ==")
params = {
    "w": Tensor(np.random.default_rng(0).normal(size=(6, 4)), requires_grad=True),
    "b": Tensor(np.zeros(4), requires_grad=True),
}
data = np.random.default_rng(1).normal(size=(8, 6))


def program():
    h = ad.leaky_relu(ad.matmul(Tensor(data), params["w"]) + params["b"])
    return (ad.tanh(h) * ad.sigmoid(h)).sum()


err = grad_check(program, params, samples_per_param=None)
print(f"max relative gradient error over every coordinate: {err:.2e}")

print("\n== Diffusion over a neighbour table as one tape op ==")
h0 = Tensor(np.zeros((1, 1, 3, 2)))
values = Tensor(np.arange(10.0).reshape(1, 1, 1, 5, 2), requires_grad=True)  # 5 source rows
weights = Tensor(np.ones((1, 3, 2)), requires_grad=True)
nbr = np.array([[0, 0], [3, 1], [4, 4]])  # (N, K) neighbour table, repeats allowed
states = ad.diffuse(h0, weights, nbr, steps=1, restart=0.0, sources=values)
print(f"weighted neighbour sums: {states.data[1, 0, 0, :, 0]}")
states.sum().backward()
print(f"gradient at the source rows (A^T 1): {values.grad[0, 0, 0, :, 0]}")

print("\n== Adam on a least-squares toy ==")
rng = np.random.default_rng(2)
target_w = rng.normal(size=(3, 1))
xs = rng.normal(size=(64, 3))
ys = xs @ target_w
fit = {"w": Tensor(np.zeros((3, 1)), requires_grad=True)}
opt = Adam(fit, lr=0.05)
for step in range(200):
    opt.zero_grad()
    resid = ad.matmul(Tensor(xs), fit["w"]) - Tensor(ys)
    ((resid * resid).sum() / len(xs)).backward()
    opt.step()
print(f"recovered weights: {fit['w'].data.ravel().round(4)}")
print(f"true weights:      {target_w.ravel().round(4)}")
