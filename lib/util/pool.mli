(** Fixed Domain worker pool over a chunked index range.

    [run ~jobs ~n ~init ~body] evaluates [body worker_state i] for every
    [i] in [0, n) across [jobs] domains (the calling domain included) and
    returns the results indexed by [i].  Each worker builds its own state
    with [init] once, before processing any item — this is where callers
    allocate resources that must never be shared between domains
    (simulator handles with mutable scratch, per-level meter models, …).

    Determinism contract: the pool guarantees result [i] sits at index [i],
    nothing more.  If [body]'s value for [i] is a pure function of [i] (use
    {!Rng.mix} to derive per-item randomness), the returned array is
    bit-identical for every [jobs] value, 1 included. *)

val default_jobs : unit -> int
(** [min (Domain.recommended_domain_count ()) 8] — the CLI's [--jobs]
    default.  Campaign trials are memory-light, so beyond a handful of
    domains the shared cache, not the core count, bounds the speedup. *)

exception Multi_failure of exn * (int * string) list
(** Raised by {!run} when {e more than one} worker failed: the
    lowest-numbered worker's exception, intact, plus [(worker id, rendered
    exception)] for every other failed worker — concurrent failures are
    reported, not discarded.  A printer is registered, so uncaught it
    renders all of them. *)

val run :
  jobs:int -> n:int -> init:(unit -> 'w) -> body:('w -> int -> 'a) -> 'a array
(** With [jobs = 1] (or [n <= 1]) everything runs in the calling domain and
    no domain is spawned.  The pool never starts a worker that would
    average fewer than 4 items, so a tiny range — e.g. [jobs = 8] over
    [n = 3] — runs sequentially in the caller instead of paying domain
    spawns that cost more than the work (results are identical either
    way).  If any [init] or [body] raises, the remaining workers finish
    their current chunk and every worker is joined; then a {e single}
    failure is re-raised as-is, while multiple failures raise
    {!Multi_failure} aggregating all of them.
    @raise Invalid_argument if [jobs < 1] or [n < 0]. *)
