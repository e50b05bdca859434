"""Reference implementations kept only to pin the production code's outputs."""
