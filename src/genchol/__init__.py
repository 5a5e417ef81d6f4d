"""Generalized Cholesky factorization of saddle-point matrices, with rigorous
perturbation bounds (normwise and componentwise) and a verification harness."""
