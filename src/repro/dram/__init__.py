"""Event-driven DRAM model (the DRAMsim3 substitute — see DESIGN.md)."""
