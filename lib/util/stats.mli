(** Small descriptive-statistics helpers used by campaigns and benches. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
}

val summarize : float array -> summary
(** @raise Invalid_argument on an empty array or any NaN element (same
    contract as {!percentile}: a NaN placeholder must never poison a
    summary silently). *)

val percentile : float array -> float -> float
(** [percentile a p] with [p] in [0,100]; linear interpolation between ranks
    under [Float.compare] order.  The input need not be sorted.
    @raise Invalid_argument on an empty array, [p] outside [0,100], or any
    NaN element (a NaN placeholder must never poison a summary silently). *)

val mean : float array -> float

val ratio : int -> int -> float
(** [ratio num den] is [num /. den] as floats; 0 if [den = 0]. *)
