(** Crash-safe durable record log — the persistence layer under
    checkpoint/resume.

    A journal file is an 8-byte magic header followed by length-prefixed,
    CRC32-checked binary records.  The format is designed around one
    failure model: the writing process can die (crash, OOM kill, power
    cut) at {e any} byte boundary, and a reader must always recover every
    record that was fully appended before the cut.  Concretely:

    - a {e torn final record} — the file ends mid-header or mid-payload —
      is tolerated: {!recover} stops at the last intact record and reports
      how many trailing bytes it dropped;
    - {e mid-stream corruption} — a complete record whose CRC does not
      match, a bad magic header, or an absurd length field — is refused
      with a typed {!error}: silently skipping over it could resurrect
      stale bytes as valid records.

    Appends go through an injectable {!io} so chaos tests can inject
    short writes, [EINTR], [ENOSPC] and fsync failures
    (see [test/chaos.ml]); the writer retries short writes and
    [EINTR], and surfaces everything else as {!Error}.  Durability is
    batched: the file is fsynced every [sync_every] appends (and on
    {!close}), so a machine crash loses at most the last batch — which a
    resuming reader simply recomputes.  A process kill loses nothing
    already [write(2)]-ten.

    Trace counters: [journal.records] (records appended),
    [journal.bytes_fsynced], [journal.recover_complete] /
    [journal.recover_torn] (recovery outcomes). *)

(** {1 Errors} *)

type error =
  | Corrupt of { offset : int; reason : string }
      (** the bytes at [offset] cannot be a valid journal: bad magic,
          CRC mismatch on a complete record, or a length field beyond
          {!max_record_len} *)
  | Io_failure of string  (** the underlying writer/reader failed *)

exception Error of error

val error_to_string : error -> string

(** {1 Injectable I/O} *)

(** The writer's view of its backing store.  [write buf off len] may
    write fewer than [len] bytes (the writer loops); it may raise
    [Unix.Unix_error (EINTR, _, _)] (the writer retries) — any other
    exception aborts the append as {!Io_failure}. *)
type io = {
  write : bytes -> int -> int -> int;
  sync : unit -> unit;
  close : unit -> unit;
}

(** {1 Writing} *)

type writer

val create :
  ?sync_every:int ->
  ?wrap_io:(io -> io) ->
  resume:bool ->
  string ->
  (string list * writer, error) result
(** [create ~resume path] opens a journal file for appending.

    With [resume = false] the file is created (or truncated) and a fresh
    magic header written; the returned record list is empty.  With
    [resume = true] the file is first {!recover}ed: the intact records
    are returned, the file is truncated back to the end of the last
    intact record (discarding a torn tail, so subsequent appends land on
    a clean boundary), and the writer continues from there.  A missing
    file under [resume = true] is simply a fresh journal.

    [sync_every] (default 32) batches fsyncs: every [n]-th append syncs;
    [0] disables all implicit syncs (only {!sync}/{!close} sync).
    [wrap_io] wraps the file-backed {!io} before use — the chaos
    injection hook.

    Returns [Error] on mid-stream corruption ([resume = true]) or any
    I/O failure; never raises. *)

val append : writer -> string -> unit
(** Append one record (length prefix + CRC32 + payload).  Retries short
    writes and [EINTR]; anything else raises {!Error} ([Io_failure]),
    after which the writer must be considered broken.
    @raise Error also on a payload longer than {!max_record_len}, or if
    the writer is closed. *)

val sync : writer -> unit
(** Force an fsync of everything appended so far.  @raise Error on
    failure. *)

val close : writer -> unit
(** Sync and close.  Idempotent.  @raise Error if the final sync or the
    close itself fails (the fd is still released). *)

val records_written : writer -> int

(** {1 Recovery} *)

type recovery =
  | Fresh  (** missing or empty file — nothing was ever written *)
  | Complete  (** every byte accounted for *)
  | Torn of { dropped_bytes : int }
      (** the file ends inside a record (or inside the magic header of a
          brand-new journal): the final [dropped_bytes] bytes were
          discarded *)

type recovered = {
  records : string list;  (** intact record payloads, in append order *)
  valid_len : int;
      (** byte offset just past the last intact record — what a resuming
          writer truncates to *)
  recovery : recovery;
}

val recover : string -> (recovered, error) result
(** Read and validate a journal file.  Missing file ⇒
    [Ok { records = []; valid_len = 0; recovery = Fresh }]. *)

val recover_string : string -> (recovered, error) result
(** {!recover} over an in-memory image — lets fuzz tests truncate at
    every byte offset without touching the filesystem. *)

(** {1 Binary encoding helpers}

    Little building blocks for record payloads (all little-endian),
    shared by the checkpoint layer so every consumer frames data the same
    way. *)

module Enc : sig
  val u8 : Buffer.t -> int -> unit
  val u32 : Buffer.t -> int -> unit
  val i64 : Buffer.t -> int -> unit  (** full OCaml int, sign included *)

  val float : Buffer.t -> float -> unit
  (** IEEE bits via [Int64.bits_of_float] — exact round-trip. *)

  val str : Buffer.t -> string -> unit  (** [u32] length + bytes *)
end

module Dec : sig
  type src

  exception Malformed of string
  (** Raised by every reader on overrun or an out-of-range value — a
      CRC-valid record that fails to decode is a logic/version mismatch,
      which callers treat as "recompute this shard". *)

  val of_string : string -> src
  val u8 : src -> int
  val u32 : src -> int
  val i64 : src -> int
  val float : src -> float
  val str : src -> string
  val at_end : src -> bool
end

(** {1 Format constants} *)

val max_record_len : int
(** Cap on a single record's payload (256 MiB).  A complete header
    declaring more is corruption, not a big record. *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3, the zlib polynomial) of a string, in
    [\[0, 2{^32})] — exposed so tests can frame records by hand. *)
