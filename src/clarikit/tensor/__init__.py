"""Minimal reverse-mode autodiff tensors plus the transformer blocks,
optimizer, and hashed text encoder used by the pane scoring model."""
