(* The state is the 8 bytes of one [int64], read and written with
   [Bytes.get_int64_le]/[set_int64_le]: the value stays unboxed inside a
   draw, where a [mutable int64] field would box a fresh state on every
   step.  [next] and the finaliser are inlined into each draw, so no
   [int64] leaves a function boxed. *)
type t = Bytes.t

let of_int64 s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_int64 (Int64.of_int seed)

(* Stateless splitmix64 finaliser (Steele, Lea & Flood): passes BigCrush,
   trivially seedable. *)
let[@inline] mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* splitmix64: a Weyl step of the state, then the finaliser. *)
let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t 0 s;
  mix64 s

(* The top 62 bits of one draw. *)
let[@inline] draw62 t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* 2^62 as an Int64: one past the largest value a 62-bit draw can take.
   Not representable as a native [int] (max_int is 2^62 - 1), so the
   rejection threshold below is computed in Int64 first. *)
let two_pow_62 = 0x4000000000000000L

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  (* Rejection sampling on the top 62 bits avoids modulo bias. *)
  if bound land (bound - 1) = 0 then draw62 t land (bound - 1)
  else begin
    (* Accept draws below the largest multiple of [bound] that fits in 62
       bits; anything at or above it belongs to the final partial block and
       would over-weight the low residues.  The threshold is explicit — an
       overflow-based test (Java's [v - r + (bound - 1) >= 0]) relies on
       wraparound behaviour that is easy to break under refactoring.  For a
       non-power-of-two bound the threshold is at most 2^62 - 1, so it fits
       a native int. *)
    let threshold =
      Int64.to_int
        (Int64.sub two_pow_62 (Int64.rem two_pow_62 (Int64.of_int bound)))
    in
    let v = ref (draw62 t) in
    while !v >= threshold do
      v := draw62 t
    done;
    !v mod bound
  end

let bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let bool t = Int64.logand (next t) 1L = 1L

(* A 53-bit integer converts to a float exactly. *)
let float t x = x *. (float_of_int (bits53 t) /. 9007199254740992.0)

let split t = of_int64 (next t)

let mix seed i =
  (* Finalise the seed before adding the Weyl-stepped index so that
     neighbouring (seed, i) pairs land in unrelated states: streams for
     trials i and i+1 of one campaign must be as independent as streams
     for two unrelated seeds. *)
  Int64.to_int
    (mix64
       (Int64.add (mix64 (Int64.of_int seed))
          (Int64.mul (Int64.of_int i) 0x9E3779B97F4A7C15L)))

let derive seed i = create (mix seed i)

let pick t a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Rng.pick";
  a.(int t n)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Floyd's algorithm: O(k) expected draws, no O(n) allocation.  Small
     draws (the campaign hot path: k <= 5, millions of calls) keep the
     seen-set as the output list itself — linear membership beats paying
     a Hashtbl allocation per call by an order of magnitude.  Both
     branches consume identical randomness, so the draws (and every
     campaign row derived from them) are bit-identical either way. *)
  if k <= 16 then begin
    let out = ref [] in
    for j = n - k to n - 1 do
      let r = int t (j + 1) in
      let x = if List.mem r !out then j else r in
      out := x :: !out
    done;
    !out
  end
  else begin
    let seen = Hashtbl.create (2 * k) in
    let out = ref [] in
    for j = n - k to n - 1 do
      let r = int t (j + 1) in
      let x = if Hashtbl.mem seen r then j else r in
      Hashtbl.replace seen x ();
      out := x :: !out
    done;
    !out
  end
