(** The paper's baseline comparator (Section IV).

    "Consider a simple baseline method where only one valve is switched
    open or closed each time for fault test.  The total number of test
    vectors in this case would be two times the number of valves."

    Per valve [v] that baseline applies a {e stuck-at-0 probe} (a flow
    path through [v]) and a {e stuck-at-1 probe} (the same path with [v]
    alone closed, {!Test_vector.of_pierced_path}), for a total of [2 * nv]
    vectors — quadratically more than the paper's method, which is the
    point of the comparison.  Only the count is computed; the suite itself
    is not materialised. *)

val vector_count : Fpva_grid.Fpva.t -> int
(** [2 * num_valves] — the paper's headline comparison number. *)
