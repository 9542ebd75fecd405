(** Control-layer architecture: where valves' control channels physically
    run.

    The control-leakage defect (paper Fig. 3(d)) happens between control
    channels that are {e routed} next to each other in the control layer —
    which need not be the channels of fluidically adjacent valves.  This
    module models simple manifold routings and derives the ordered
    aggressor/victim pairs a leakage test must exercise; the fluid-adjacency
    pair model used by default in {!Fpva_testgen.Leakage} is one instance.

    Routing schemes:

    - {!Fluid_adjacency}: control channels only neighbour each other at
      their valves; leak pairs are valves sharing a fluid cell (the default
      assumption when the control routing is unknown).
    - {!Row_manifold}: every control channel runs west from its valve to a
      manifold at the west chip edge, in a horizontal routing track.  Two
      channels can leak where they run side by side: same or adjacent
      track, overlapping horizontal extent.
    - {!Column_manifold}: the transposed scheme — channels run north to a
      manifold at the north edge. *)

type routing = Fluid_adjacency | Row_manifold | Column_manifold

val track : Fpva.t -> routing -> int -> int
(** [track t routing v] — the routing track index of valve [v]'s control
    channel ([Row_manifold]: one track per half-row; [Column_manifold]: per
    half-column; [Fluid_adjacency]: raises).
    @raise Invalid_argument for [Fluid_adjacency]. *)

val leak_pairs : Fpva.t -> routing -> (int * int) array
(** All ordered (aggressor, victim) pairs whose control channels can leak
    into each other under the given routing.  Symmetric: [(a,b)] present
    iff [(b,a)] present. *)
