let vector_count fpva = 2 * Fpva_grid.Fpva.num_valves fpva
