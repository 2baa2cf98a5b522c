"""MMU models: TLBs, page tables, page-table walkers (NeuMMU-style)."""
