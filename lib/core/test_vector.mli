(** Test vectors.

    A test vector assigns an open/closed state to {e every} valve of the
    chip (the paper's output format), together with the golden (fault-free)
    response: which ports see pressure when the sources are driven.  The
    golden response is computed by reachability on the nominal architecture,
    so it automatically accounts for open channels, walls and multi-port
    layouts. *)

open Fpva_grid

type kind =
  | Flow of Flow_path.t
      (** opens exactly the path's valves; expects pressure at the path's
          sink — detects stuck-at-0 on the path *)
  | Cut of Cut_set.t
      (** closes exactly the cut's valves; expects no sink pressure —
          detects stuck-at-1 in the cut *)
  | Leak of Flow_path.t
      (** flow-path vector generated for control-leakage pairs: the path's
          valves open, aggressor valves (everything else) actuated *)
  | Pierced of Flow_path.t * int
      (** a flow path with one of its own valves commanded closed: the sink
          must stay dark, and a stuck-at-1 fault at exactly that valve
          re-completes the path — the targeted stuck-at-1 probe used for
          valves that are essential in no reasonable cut-set *)

type t = {
  label : string;
  kind : kind;
  open_valves : bool array;  (** by valve id; [true] = valve held open *)
  golden : bool array;  (** by port index; expected pressure presence *)
  region : string;
      (** by {!Fpva_grid.Compiled} node id: ['\001'] for every node the
          fault-free sweep reaches, ['\000'] elsewhere *)
}
(** Invariant: [golden] equals [golden_response fpva ~open_valves] for the
    chip the vector was built for.  The constructors below establish it,
    and {!Suite_io}'s parser refuses a vector whose stored golden line
    differs.  The simulator's reads rely on it: a chip whose effective
    valve states equal [open_valves] responds with [golden], so both the
    scalar read and the batched one skip the pressure sweep for it.

    Invariant: [region] is the set of nodes that same fault-free sweep
    visits, one byte per node of the chip's compilation, so it holds
    port [i]'s node exactly when [golden.(i)] is [true].  The
    constructors fill it from the sweep that fills [golden].  The batched
    read relies on it: a trial whose faults only open valves reaches at
    least this set, so its sweep starts from it instead of from the
    sources.  No array may be mutated once built. *)

val golden_response : Fpva.t -> open_valves:bool array -> bool array
(** Fault-free port pressures under a valve-state assignment. *)

val make : label:string -> kind -> Fpva.t -> open_valves:bool array -> t
(** A vector commanding [open_valves], its [golden] and [region] from one
    fault-free sweep.  The constructors below all build through it; it
    does not check [kind] against [open_valves] ({!well_formed} does). *)

val of_flow_path : ?label:string -> Fpva.t -> Flow_path.t -> t

val of_cut_set : ?label:string -> Fpva.t -> Cut_set.t -> t

val of_leak_path : ?label:string -> Fpva.t -> Flow_path.t -> t

val of_pierced_path : ?label:string -> Fpva.t -> Flow_path.t -> int -> t
(** [of_pierced_path t path v] — [v] must be one of [path]'s valves.
    @raise Invalid_argument otherwise. *)

val open_count : t -> int

val well_formed : Fpva.t -> t -> (unit, string) result
(** Sanity audit: array sizes match the chip; a [Flow]/[Leak] vector opens
    exactly its path's valves and its golden response shows pressure at the
    path sink; a [Cut] vector closes exactly its cut and its golden
    response shows no sink pressure. *)

val pp : Format.formatter -> t -> unit
