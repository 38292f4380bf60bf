"""Graph substrates: synthetic generators, CSR representation, and
edge-probability models for the IC diffusion process."""
