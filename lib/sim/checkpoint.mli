(** Shard-grained checkpoint store for resumable campaigns.

    A checkpoint file is a {!Fpva_util.Journal}: a header record pinning
    the {e key} — a digest of everything the results depend on (canonical
    layout render, campaign config, seed, suite text; see
    {!Campaign.checkpoint_key}) — followed by one record per completed
    {e shard} (a contiguous range of trial indices, encoded by the
    engine).  Because every trial is a pure function of [(seed, index)]
    (it draws from its own counter-based RNG stream), replaying a
    journaled shard is byte-identical to recomputing it, so a resumed run
    produces rows bit-identical to a cold one — at any [jobs] value,
    which is deliberately {e not} part of the key.

    The store degrades instead of failing: a journal write error
    ([ENOSPC], a full disk, a yanked volume) disables further
    checkpointing, records the failure for {!failure}, and lets the
    campaign finish normally — losing durability, never correctness.
    Likewise a CRC-valid shard record that fails to {e decode} (a
    version skew the key digest missed) is dropped and recomputed.

    Trace counters: [checkpoint.shards_recorded],
    [checkpoint.shards_skipped] (served from the journal on resume),
    [checkpoint.shards_rejected] (undecodable), and
    [checkpoint.write_failures]. *)

type t

type open_error =
  | Corrupt of string  (** mid-stream journal corruption (torn tails are fine) *)
  | Key_mismatch of { expected : string; found : string }
      (** the file belongs to a different (layout, config, seed, suite) *)
  | Io_failure of string

val open_error_to_string : open_error -> string

val open_ :
  ?sync_every:int ->
  ?wrap_io:(Fpva_util.Journal.io -> Fpva_util.Journal.io) ->
  path:string ->
  resume:bool ->
  key:string ->
  unit ->
  (t, open_error) result
(** Open (or create) the checkpoint at [path] for the run identified by
    [key].  With [resume = true] an existing journal is recovered — torn
    tail discarded — and its shard records become available to
    {!consume}; a missing file is simply fresh.  A recovered header
    whose key differs from [key] is refused with [Key_mismatch] (the
    caller decided to resume {e this} run; silently restarting would
    throw away their intent, silently reusing would corrupt results).
    With [resume = false] the file is truncated and started fresh.
    [sync_every]/[wrap_io] pass through to the journal writer. *)

val consume : t -> int -> decode:(string -> 'a option) -> 'a option
(** [consume t shard ~decode] is the decoded payload of [shard] if the
    journal holds one, counting it as skipped work; an undecodable
    payload is dropped (counted rejected) and [None] returned so the
    engine recomputes the shard.  Call once per shard during resume
    prefill, before workers start. *)

val record : t -> int -> string -> unit
(** Append the payload for a freshly completed shard.  Thread-safe (a
    mutex serialises appends — shard completion is rare next to trial
    execution).  Never raises: on a journal failure checkpointing is
    disabled and the failure kept for {!failure}. *)

val flush : t -> unit
(** Fsync the journal — called by the engine when a run completes so the
    file is durable before control returns.  Never raises (failures
    disable the store, as with {!record}). *)

val resumed_shards : t -> int
(** Shards served from the journal via {!consume} since {!open_}. *)

val recorded_shards : t -> int
(** Shards appended via {!record} since {!open_} (loaded ones excluded). *)

val failure : t -> string option
(** The first write failure, if checkpointing was disabled by one. *)

val path : t -> string

val close : t -> unit
(** Close the journal, keeping the file (a completed run's journal
    doubles as a cache: reopening it resumes instantly).  Idempotent;
    never raises. *)

val delete : t -> unit
(** Close and remove the file — for callers that treat the checkpoint as
    scratch for exactly one logical request (the serve daemon).  Never
    raises. *)

val key_digest : string -> string
(** Hex digest of a key — stable filename material for directory-based
    stores ([<digest>.ckpt] under the serve checkpoint dir). *)

type store = t

(** The one grid loop behind every resumable engine ({!Campaign.run},
    {!Campaign.run_noisy}, {!Diagnosis.build}): a grid of [rows * trials]
    independent work items, indexed [g = row * trials + i], scored
    through {!Fpva_util.Pool.run} in {e units} of up to [unit]
    consecutive items of one row (only a row's last unit is narrower).
    Every item must be a pure function of its index, so the grid is
    identical for every [jobs] value.

    With a checkpoint, items are also grouped into journal {e shards} of
    [shard] consecutive items (never straddling a row); a shard's record
    is written by whichever worker finishes its last unit, and journaled
    shards are replayed before any worker starts, so their units are
    never rescored.  Without one, results stay in memory: no payload is
    encoded and no shard is counted down.

    Memory-model note: the plain writes of a unit's items are published
    to the journaling worker by the seq-cst fetch-and-add on the shard's
    countdown (message-passing idiom), and to the caller's domain by the
    pool join. *)
module Shards : sig
  type 'a journal = {
    store : store;
    shard : int;  (** items per journal record; a multiple of [unit] *)
    enc : Buffer.t -> 'a -> unit;
    dec : Fpva_util.Journal.Dec.src -> 'a;
        (** may raise {!Fpva_util.Journal.Dec.Malformed} *)
  }
  (** How one engine journals its items.  Each payload additionally
      records its own [(lo, count)] range, so a record can never be
      replayed into a different slice of the run (e.g. after a shard-size
      change) — a mismatch drops the record for recomputation. *)

  type 'a grid = {
    rows : 'a array option array;
        (** row [r]'s items in index order; [None] when any of them was
            skipped because the budget ran out *)
    scored : int;  (** items a worker scored in this call *)
    scored_units : int;  (** units a worker scored in this call *)
  }

  val run :
    ?budget:Fpva_testgen.Budget.t ->
    ?checkpoint:'a journal ->
    jobs:int ->
    rows:int ->
    trials:int ->
    unit:int ->
    empty:'a ->
    init:(unit -> 'w) ->
    body:('w -> lo:int -> width:int -> 'a array) ->
    unit ->
    'a grid
  (** [body w ~lo ~width] scores items [lo .. lo + width - 1] with the
      worker state [w] (built once per worker by [init]) and returns an
      array whose first [width] elements are their results; [run] copies
      them out, so [body] may reuse one buffer per worker.  [empty]
      fills the slots of items not scored yet; it never appears in a
      complete row.  Once [budget] (default unlimited) is exhausted no
      further unit is scored, but replayed units still count; the journal
      is flushed before returning.
      @raise Invalid_argument if [jobs < 1], [rows] or [trials] is
      negative, [unit < 1], or [shard] is not a positive multiple of
      [unit]. *)
end
