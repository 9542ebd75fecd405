(* Tests for the fpva.util substrate: Vec, Rng, Stats, Timer, Pool, Table. *)

open Helpers
module Vec = Fpva_util.Vec
module Rng = Fpva_util.Rng
module Stats = Fpva_util.Stats
module Table = Fpva_util.Table
module Timer = Fpva_util.Timer
module Pool = Fpva_util.Pool

(* ---------- Vec ---------- *)

let vec_tests =
  [
    case "create is empty" (fun () ->
        let v = Vec.create () in
        checki "len" 0 (Vec.length v);
        checkb "is_empty" true (Vec.is_empty v));
    case "push/get/set" (fun () ->
        let v = Vec.create () in
        for i = 0 to 99 do
          Vec.push v (i * i)
        done;
        checki "len" 100 (Vec.length v);
        checki "get 7" 49 (Vec.get v 7);
        Vec.set v 7 (-1);
        checki "set 7" (-1) (Vec.get v 7);
        checki "last" (99 * 99) (Vec.last v));
    case "pop returns in LIFO order" (fun () ->
        let v = Vec.of_list [ 1; 2; 3 ] in
        checki "pop" 3 (Vec.pop v);
        checki "pop" 2 (Vec.pop v);
        checki "len" 1 (Vec.length v));
    case "make fills" (fun () ->
        let v = Vec.make 5 'x' in
        checki "len" 5 (Vec.length v);
        check Alcotest.char "fill" 'x' (Vec.get v 4));
    case "out of bounds raises" (fun () ->
        let v = Vec.of_list [ 1 ] in
        Alcotest.check_raises "get" (Invalid_argument "Vec.get") (fun () ->
            ignore (Vec.get v 1));
        Alcotest.check_raises "set" (Invalid_argument "Vec.set") (fun () ->
            Vec.set v (-1) 0));
    case "pop empty raises" (fun () ->
        Alcotest.check_raises "pop" (Invalid_argument "Vec.pop") (fun () ->
            ignore (Vec.pop (Vec.create ()))));
    case "clear retains nothing" (fun () ->
        let v = Vec.of_list [ 1; 2 ] in
        Vec.clear v;
        checkb "empty" true (Vec.is_empty v));
    case "iterators traverse in order" (fun () ->
        let v = Vec.of_list [ 10; 20; 30 ] in
        let acc = ref [] in
        Vec.iter (fun x -> acc := x :: !acc) v;
        check (Alcotest.list Alcotest.int) "iter" [ 30; 20; 10 ] !acc;
        let idx = ref [] in
        Vec.iteri (fun i _ -> idx := i :: !idx) v;
        check (Alcotest.list Alcotest.int) "iteri" [ 2; 1; 0 ] !idx);
    case "fold/map/exists" (fun () ->
        let v = Vec.of_list [ 1; 2; 3; 4 ] in
        checki "fold" 10 (Vec.fold_left ( + ) 0 v);
        check (Alcotest.list Alcotest.int) "map"
          [ 2; 4; 6; 8 ]
          (Vec.to_list (Vec.map (fun x -> 2 * x) v));
        checkb "exists" true (Vec.exists (fun x -> x = 3) v);
        checkb "not exists" false (Vec.exists (fun x -> x > 4) v));
    case "copy is independent" (fun () ->
        let v = Vec.of_list [ 1; 2 ] in
        let w = Vec.copy v in
        Vec.set w 0 99;
        checki "orig" 1 (Vec.get v 0));
    qcheck "to_list/of_list round-trips"
      QCheck2.Gen.(list int)
      (fun xs -> Vec.to_list (Vec.of_list xs) = xs);
    qcheck "push grows one at a time"
      QCheck2.Gen.(list int)
      (fun xs ->
        let v = Vec.create () in
        List.for_all
          (fun x ->
            let before = Vec.length v in
            Vec.push v x;
            Vec.length v = before + 1 && Vec.last v = x)
          xs);
  ]

(* ---------- Rng ---------- *)

let rng_tests =
  [
    case "deterministic per seed" (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        for _ = 1 to 100 do
          checki "stream" (Rng.int a 1000) (Rng.int b 1000)
        done);
    case "different seeds diverge" (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let da = List.init 20 (fun _ -> Rng.int a 1_000_000) in
        let db = List.init 20 (fun _ -> Rng.int b 1_000_000) in
        checkb "diverge" true (da <> db));
    case "int bound respected" (fun () ->
        let r = Rng.create 3 in
        for _ = 1 to 1000 do
          let x = Rng.int r 17 in
          checkb "in range" true (x >= 0 && x < 17)
        done);
    case "int invalid bound raises" (fun () ->
        Alcotest.check_raises "zero" (Invalid_argument "Rng.int") (fun () ->
            ignore (Rng.int (Rng.create 1) 0)));
    case "float in range" (fun () ->
        let r = Rng.create 5 in
        for _ = 1 to 1000 do
          let x = Rng.float r 2.5 in
          checkb "in range" true (x >= 0.0 && x < 2.5)
        done);
    case "bool is not constant" (fun () ->
        let r = Rng.create 11 in
        let xs = List.init 64 (fun _ -> Rng.bool r) in
        checkb "both values" true
          (List.mem true xs && List.mem false xs));
    case "sample_without_replacement distinct and in range" (fun () ->
        let r = Rng.create 13 in
        for _ = 1 to 100 do
          let xs = Rng.sample_without_replacement r 5 12 in
          checki "count" 5 (List.length xs);
          checki "distinct" 5 (List.length (List.sort_uniq compare xs));
          checkb "range" true (List.for_all (fun x -> x >= 0 && x < 12) xs)
        done);
    case "sample k=n is a permutation" (fun () ->
        let r = Rng.create 17 in
        let xs = Rng.sample_without_replacement r 8 8 in
        check
          (Alcotest.list Alcotest.int)
          "perm" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
          (List.sort compare xs));
    case "sample invalid raises" (fun () ->
        Alcotest.check_raises "k>n"
          (Invalid_argument "Rng.sample_without_replacement") (fun () ->
            ignore (Rng.sample_without_replacement (Rng.create 1) 5 3)));
    case "shuffle preserves multiset" (fun () ->
        let r = Rng.create 23 in
        let a = Array.init 50 (fun i -> i) in
        Rng.shuffle_in_place r a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        check
          (Alcotest.array Alcotest.int)
          "multiset"
          (Array.init 50 (fun i -> i))
          sorted);
    case "int roughly uniform" (fun () ->
        (* chi-square-lite: all 10 buckets within generous bounds *)
        let r = Rng.create 31 in
        let buckets = Array.make 10 0 in
        let n = 100_000 in
        for _ = 1 to n do
          let x = Rng.int r 10 in
          buckets.(x) <- buckets.(x) + 1
        done;
        Array.iter
          (fun c ->
            checkb "bucket within 5% of mean" true
              (abs (c - (n / 10)) < n / 20))
          buckets);
    case "pinned streams survive the rejection rewrite" (fun () ->
        (* Byte-level pins captured before the explicit-threshold rejection
           landed: the rewrite must not change a single draw.  Update only
           with a deliberate stream break. *)
        let draws seed bound n =
          let r = Rng.create seed in
          List.init n (fun _ -> Rng.int r bound)
        in
        check (Alcotest.list Alcotest.int) "seed 42 bound 10"
          [ 3; 2; 4; 1; 2; 5; 1; 7 ] (draws 42 10 8);
        check (Alcotest.list Alcotest.int) "seed 7 bound 1000"
          [ 621; 951; 336; 50; 918; 76 ] (draws 7 1000 6);
        check (Alcotest.list Alcotest.int) "seed 1 bound max_int"
          [ 2612804094800205616; 3439311302766607129; 4477959822570722647;
            2049245188455445058 ]
          (draws 1 max_int 4));
    case "adversarial bounds near 2^62 stay in range" (fun () ->
        (* the rejection threshold 2^62 - (2^62 mod bound) sits closest to
           the raw draw ceiling for bounds just under 2^62 — exactly where
           the old overflow-style test was hardest to reason about *)
        List.iter
          (fun bound ->
            let r = Rng.create 97 in
            for _ = 1 to 500 do
              let x = Rng.int r bound in
              checkb
                (Printf.sprintf "0 <= %d < %d" x bound)
                true
                (x >= 0 && x < bound)
            done)
          [ max_int; max_int - 1; (1 lsl 61) + 1; (1 lsl 61) + 3 ];
        (* same seed, same bound: rejection must be deterministic *)
        let stream bound =
          let r = Rng.create 97 in
          List.init 100 (fun _ -> Rng.int r bound)
        in
        checkb "deterministic at max_int" true
          (stream max_int = stream max_int));
    case "mix is a pure function of (seed, index)" (fun () ->
        checki "reproducible" (Rng.mix 42 17) (Rng.mix 42 17);
        checkb "index matters" true (Rng.mix 42 17 <> Rng.mix 42 18);
        checkb "seed matters" true (Rng.mix 42 17 <> Rng.mix 43 17);
        (* the splitmix finaliser must not collapse nearby indices *)
        let outs =
          List.sort_uniq compare (List.init 1000 (fun i -> Rng.mix 5 i))
        in
        checki "no collisions over 1000 indices" 1000 (List.length outs));
    case "pinned digest over 100 000 mixed draws" (fun () ->
        (* Every entry point, each bound class (powers of two, others, and
           bounds near 2^62 where rejection is frequent), and streams
           replaced by [split] and [derive] mid-run.  The digest was taken
           with the boxed-[int64] state the [Bytes] state replaced: a
           change to any single draw moves it. *)
        let bounds =
          [| 1; 2; 8; 1024; 1 lsl 40; 3; 7; 10; 1000; 1_000_003; max_int;
             max_int - 1; (1 lsl 61) + 1; (1 lsl 61) + 3 |]
        in
        let nb = Array.length bounds in
        let buf = Buffer.create (1 lsl 20) in
        let add_int x =
          Buffer.add_string buf (string_of_int x);
          Buffer.add_char buf ' '
        in
        let add_float x = add_int (Int64.to_int (Int64.bits_of_float x)) in
        let r = ref (Rng.create 2024) in
        let deck = Array.init 13 Fun.id in
        for i = 0 to 99_999 do
          match i mod (nb + 11) with
          | k when k < nb -> add_int (Rng.int !r bounds.(k))
          | k when k = nb -> add_float (Rng.float !r 1.0)
          | k when k = nb + 1 -> add_float (Rng.float !r 3.5)
          | k when k = nb + 2 -> add_int (Bool.to_int (Rng.bool !r))
          | k when k = nb + 3 ->
            r := Rng.split !r;
            add_int (Rng.int !r 1_000_000)
          | k when k = nb + 4 ->
            add_int (Rng.int (Rng.derive i (Rng.int !r 1000)) 1_000_000)
          | k when k = nb + 5 ->
            Rng.shuffle_in_place !r deck;
            Array.iter add_int deck
          | k when k = nb + 6 ->
            List.iter add_int (Rng.sample_without_replacement !r 5 40)
          | k when k = nb + 7 ->
            List.iter add_int (Rng.sample_without_replacement !r 20 60)
          | k when k = nb + 8 -> add_int (Rng.pick !r deck)
          | k when k = nb + 9 -> add_int (Rng.int !r (i + 1))
          | _ -> add_int (Rng.mix i 17)
        done;
        check Alcotest.string "digest" "674b5ee49226d8a087db99a9d74945f0"
          (Digest.to_hex (Digest.string (Buffer.contents buf))));
    case "float is bits53 scaled by 2^-53" (fun () ->
        let a = Rng.create 77 and b = Rng.create 77 in
        List.iter
          (fun x ->
            for _ = 1 to 250 do
              let bits = Rng.bits53 b in
              checkb "53 bits" true (bits >= 0 && bits < 1 lsl 53);
              checkb "same float" true
                (Int64.equal
                   (Int64.bits_of_float (Rng.float a x))
                   (Int64.bits_of_float
                      (x *. (float_of_int bits /. 9007199254740992.0))))
            done)
          [ 0.5; 1.0; 3.5; 1e-3 ]);
    case "int and bits53 allocate nothing per draw" (fun () ->
        (* Only native code keeps the state unboxed. *)
        if Sys.backend_type = Sys.Native then begin
          let r = Rng.create 5 in
          let words_per_draw draw =
            let before = Gc.minor_words () in
            for i = 1 to 10_000 do
              ignore (Sys.opaque_identity (draw i))
            done;
            (Gc.minor_words () -. before) /. 10_000.0
          in
          List.iter
            (fun (name, draw) ->
              let w = words_per_draw draw in
              checkb (Printf.sprintf "%s: %.2f words per draw" name w) true
                (w < 1.0))
            [ ("int, power-of-two bounds", fun i -> Rng.int r (1 lsl (i mod 62)));
              ("int, other bounds", fun i -> Rng.int r (3 + i));
              ("int, bound near 2^62", fun _ -> Rng.int r ((1 lsl 61) + 1));
              ("bits53", fun _ -> Rng.bits53 r) ]
        end);
    case "derive seed i equals create (mix seed i)" (fun () ->
        let a = Rng.derive 9 4 and b = Rng.create (Rng.mix 9 4) in
        for _ = 1 to 50 do
          checki "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
        done);
  ]

(* ---------- Stats ---------- *)

let stats_tests =
  [
    case "summarize basics" (fun () ->
        let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
        checki "n" 4 s.Stats.n;
        check (Alcotest.float 1e-9) "mean" 2.5 s.Stats.mean;
        check (Alcotest.float 1e-9) "min" 1.0 s.Stats.min;
        check (Alcotest.float 1e-9) "max" 4.0 s.Stats.max;
        check (Alcotest.float 1e-6) "stddev" 1.29099444874 s.Stats.stddev);
    case "summarize singleton has zero stddev" (fun () ->
        let s = Stats.summarize [| 42.0 |] in
        check (Alcotest.float 0.0) "sd" 0.0 s.Stats.stddev);
    case "summarize empty raises" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize")
          (fun () -> ignore (Stats.summarize [||])));
    case "percentile interpolates" (fun () ->
        let a = [| 10.0; 20.0; 30.0; 40.0 |] in
        check (Alcotest.float 1e-9) "p0" 10.0 (Stats.percentile a 0.0);
        check (Alcotest.float 1e-9) "p100" 40.0 (Stats.percentile a 100.0);
        check (Alcotest.float 1e-9) "p50" 25.0 (Stats.percentile a 50.0));
    case "percentile unsorted input" (fun () ->
        let a = [| 30.0; 10.0; 40.0; 20.0 |] in
        check (Alcotest.float 1e-9) "p50" 25.0 (Stats.percentile a 50.0));
    case "ratio" (fun () ->
        check (Alcotest.float 1e-9) "half" 0.5 (Stats.ratio 1 2);
        check (Alcotest.float 0.0) "zero den" 0.0 (Stats.ratio 1 0));
    case "percentile rejects NaN input" (fun () ->
        (* under the old polymorphic sort a NaN's position was whatever
           compare happened to decide, silently skewing every rank *)
        Alcotest.check_raises "nan"
          (Invalid_argument "Stats.percentile: NaN input") (fun () ->
            ignore (Stats.percentile [| 1.0; nan; 3.0 |] 50.0));
        Alcotest.check_raises "all nan"
          (Invalid_argument "Stats.percentile: NaN input") (fun () ->
            ignore (Stats.percentile [| nan |] 0.0)));
    case "percentile orders signed zeros and infinities" (fun () ->
        let a = [| infinity; -0.0; neg_infinity; 0.0 |] in
        check (Alcotest.float 1e-9) "p0" neg_infinity (Stats.percentile a 0.0);
        checkb "p100" true (Stats.percentile a 100.0 = infinity));
    qcheck "mean within min..max"
      QCheck2.Gen.(list_size (int_range 1 40) (float_bound_inclusive 100.0))
      (fun xs ->
        let a = Array.of_list xs in
        let s = Stats.summarize a in
        s.Stats.mean >= s.Stats.min -. 1e-9
        && s.Stats.mean <= s.Stats.max +. 1e-9);
  ]

(* ---------- Timer ---------- *)

let timer_tests =
  [
    case "now is monotonically non-decreasing" (fun () ->
        let prev = ref (Timer.now ()) in
        for _ = 1 to 1000 do
          let t = Timer.now () in
          checkb "no backwards step" true (t >= !prev);
          prev := t
        done);
    case "elapsed is never negative" (fun () ->
        let t0 = Timer.now () in
        checkb "instant" true (Timer.elapsed t0 >= 0.0);
        (* a reference point from the future must clamp, not go negative *)
        checkb "future origin clamps to zero" true
          (Timer.elapsed (t0 +. 3600.0) = 0.0));
    case "time measures and returns the result" (fun () ->
        let x, dt = Timer.time (fun () -> 21 * 2) in
        checki "result" 42 x;
        checkb "non-negative duration" true (dt >= 0.0));
  ]

(* ---------- Pool ---------- *)

let pool_tests =
  [
    case "results land at their index, any jobs value" (fun () ->
        let expected = Array.init 100 (fun i -> i * i) in
        List.iter
          (fun jobs ->
            let got =
              Pool.run ~jobs ~n:100
                ~init:(fun () -> ())
                ~body:(fun () i -> i * i)
            in
            check
              (Alcotest.array Alcotest.int)
              (Printf.sprintf "jobs=%d" jobs)
              expected got)
          [ 1; 2; 4; 7 ]);
    case "more jobs than items" (fun () ->
        let got =
          Pool.run ~jobs:8 ~n:3 ~init:(fun () -> ()) ~body:(fun () i -> i)
        in
        check (Alcotest.array Alcotest.int) "tiny range" [| 0; 1; 2 |] got);
    case "a tiny range spawns no domains" (fun () ->
        (* Under the 4-items-per-worker spawn threshold, jobs=8 over n=3 must
           run entirely in the caller: exactly one init, and every item
           computed on the calling domain. *)
        let inits = Atomic.make 0 in
        let caller = Domain.self () in
        let got =
          Pool.run ~jobs:8 ~n:3
            ~init:(fun () -> Atomic.incr inits)
            ~body:(fun () i ->
              checkb "runs on the calling domain" true (Domain.self () = caller);
              i * 10)
        in
        check (Alcotest.array Alcotest.int) "results" [| 0; 10; 20 |] got;
        checki "exactly one worker state" 1 (Atomic.get inits));
    case "min_per_worker bounds the worker count" (fun () ->
        (* 10 items at >= 4 each allows 2 workers, not 5. *)
        let inits = Atomic.make 0 in
        let _ =
          Pool.run ~jobs:5 ~n:10
            ~init:(fun () -> Atomic.incr inits)
            ~body:(fun () i -> i)
        in
        checkb "at most 2 workers" true (Atomic.get inits <= 2));
    case "empty range" (fun () ->
        let got =
          Pool.run ~jobs:4 ~n:0 ~init:(fun () -> ()) ~body:(fun () i -> i)
        in
        checki "no items" 0 (Array.length got));
    case "init runs once per worker" (fun () ->
        let inits = Atomic.make 0 in
        let _ =
          Pool.run ~jobs:3 ~n:50
            ~init:(fun () -> Atomic.fetch_and_add inits 1)
            ~body:(fun w _ -> w)
        in
        let i = Atomic.get inits in
        checkb "1 <= inits <= jobs" true (i >= 1 && i <= 3));
    case "a worker exception propagates" (fun () ->
        Alcotest.check_raises "body failure" (Failure "boom") (fun () ->
            ignore
              (Pool.run ~jobs:4 ~n:64
                 ~init:(fun () -> ())
                 ~body:(fun () i -> if i = 13 then failwith "boom" else i))));
    case "invalid arguments raise" (fun () ->
        Alcotest.check_raises "jobs 0"
          (Invalid_argument "Pool.run: jobs must be >= 1") (fun () ->
            ignore
              (Pool.run ~jobs:0 ~n:1 ~init:(fun () -> ())
                 ~body:(fun () i -> i)));
        Alcotest.check_raises "negative n"
          (Invalid_argument "Pool.run: negative item count") (fun () ->
            ignore
              (Pool.run ~jobs:1 ~n:(-1) ~init:(fun () -> ())
                 ~body:(fun () i -> i))));
    case "default_jobs is a sane domain count" (fun () ->
        let j = Pool.default_jobs () in
        checkb "1 <= jobs <= 8" true (j >= 1 && j <= 8));
  ]

(* ---------- Table ---------- *)

let table_tests =
  [
    case "renders header and rows aligned" (fun () ->
        let t = Table.create [ ("name", Table.Left); ("n", Table.Right) ] in
        Table.add_row t [ "alpha"; "1" ];
        Table.add_row t [ "b"; "100" ];
        let s = Table.render t in
        let lines = String.split_on_char '\n' s in
        checki "line count" 4 (List.length lines);
        (* all lines same width *)
        match lines with
        | first :: rest ->
          List.iter
            (fun l -> checki "width" (String.length first) (String.length l))
            rest
        | [] -> Alcotest.fail "no lines");
    case "right alignment pads left" (fun () ->
        let t = Table.create [ ("x", Table.Right) ] in
        Table.add_row t [ "1" ];
        Table.add_row t [ "100" ];
        let s = Table.render t in
        checkb "padded" true
          (List.exists
             (fun l -> l = "  1")
             (String.split_on_char '\n' s)));
    case "wrong arity raises" (fun () ->
        let t = Table.create [ ("a", Table.Left) ] in
        Alcotest.check_raises "arity"
          (Invalid_argument "Table.add_row: wrong arity") (fun () ->
            Table.add_row t [ "x"; "y" ]));
    case "separator adds a rule" (fun () ->
        let t = Table.create [ ("a", Table.Left) ] in
        Table.add_row t [ "x" ];
        Table.add_separator t;
        Table.add_row t [ "y" ];
        let lines = String.split_on_char '\n' (Table.render t) in
        checki "5 lines" 5 (List.length lines));
  ]

let tests =
  vec_tests @ rng_tests @ stats_tests @ timer_tests @ pool_tests
  @ table_tests
