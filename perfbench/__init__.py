"""End-to-end benchmark of the VRD reproduction; see README.md."""
