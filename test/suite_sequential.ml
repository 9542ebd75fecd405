(* Adaptive sequential diagnosis + lifetime wear campaigns, and the
   diagnosis-path bugfix regressions that ride along (leak adjacency
   validation, NaN-hostile summaries, rank limit guard). *)

open Helpers
open Fpva_grid
open Fpva_testgen
open Fpva_sim
module Rng = Fpva_util.Rng
module Stats = Fpva_util.Stats

let fixture =
  lazy
    (let t = Layouts.paper_array 5 in
     let suite = Pipeline.run_exn t in
     let faults = Diagnosis.single_faults t in
     let dict = Diagnosis.build t ~vectors:suite.Pipeline.vectors ~faults in
     (t, suite, dict))

(* Every [qcheck_layout] property draws the same layouts in a run (the
   seed is pinned), so each layout's suite is generated once. *)
let suites = Hashtbl.create 32

let suite_of t =
  let key = Render.plain t in
  match Hashtbl.find_opt suites key with
  | Some r -> r
  | None ->
    let r = Pipeline.run t in
    Hashtbl.add suites key r;
    r

(* ---------- Sequential diagnosis ---------- *)

let sequential_tests =
  [
    case "zero-noise sweep agrees with diagnose and beats the fixed suite"
      (fun () ->
        let _, _, dict = Lazy.force fixture in
        let sw = Diagnosis.Sequential.sweep dict in
        checkb "all sessions agree with diagnose" true
          sw.Diagnosis.Sequential.all_agree;
        checkb "mean reads strictly below fixed-suite replay" true
          (sw.Diagnosis.Sequential.mean_reads
          < float_of_int sw.Diagnosis.Sequential.fixed_reads);
        checkb "no session exceeds the suite" true
          (sw.Diagnosis.Sequential.max_session_reads
          <= sw.Diagnosis.Sequential.fixed_reads));
    case "every zero-noise replay isolates or ends all-pass" (fun () ->
        let _, _, dict = Lazy.force fixture in
        let sw = Diagnosis.Sequential.sweep dict in
        List.iter
          (fun (r : Diagnosis.Sequential.replay) ->
            checkb
              (Format.asprintf "replay of %a agreed" Fault.pp
                 r.Diagnosis.Sequential.fault)
              true r.Diagnosis.Sequential.agreed)
          sw.Diagnosis.Sequential.replays);
    case "pinned mean-reads row on the paper 5x5" (fun () ->
        (* The selection rule is deterministic (entropy argmax, lowest
           index on ties), so the sweep economics are a pinned regression
           row: 78 sessions averaging 491/78 reads against 17 fixed. *)
        let _, _, dict = Lazy.force fixture in
        let sw = Diagnosis.Sequential.sweep dict in
        checki "sessions" 78 sw.Diagnosis.Sequential.sessions;
        checki "fixed reads" 17 sw.Diagnosis.Sequential.fixed_reads;
        checki "max session reads" 11 sw.Diagnosis.Sequential.max_session_reads;
        checkb "mean reads" true
          (abs_float (sw.Diagnosis.Sequential.mean_reads -. (491.0 /. 78.0))
          < 1e-9);
        checkb "p95 reads" true
          (abs_float (sw.Diagnosis.Sequential.p95_reads -. 10.0) < 1e-9));
    case "pinned work counters on the paper 5x5 zero-noise sweep" (fun () ->
        (* [sequential_groups] counts the agreement groups each posterior
           weighs, one [exp] apiece; [sequential_cells] counts the live
           faults times the unread vectors each vector choice scores.
           At zero noise every survivor keeps log-likelihood 0, so each
           posterior weighs one group: one before each of the 78
           sessions' first read and one after each of the 491 reads. *)
        let _, _, dict = Lazy.force fixture in
        let module Trace = Fpva_util.Trace in
        Trace.reset ();
        Trace.enable ();
        ignore
          (Fun.protect ~finally:Trace.disable (fun () ->
               Diagnosis.Sequential.sweep dict));
        let count name = Trace.count (Trace.counter name) in
        checki "sessions" 78 (count "diagnosis.sequential_sessions");
        checki "reads" 491 (count "diagnosis.sequential_reads");
        checki "groups" 569 (count "diagnosis.sequential_groups");
        checki "cells" 233_317 (count "diagnosis.sequential_cells"));
    case "two domains run sessions on one dictionary" (fun () ->
        (* A session borrows the dictionary's spare working arrays; a
           concurrent session must get its own, not share them. *)
        let _, _, dict = Lazy.force fixture in
        let config =
          { Diagnosis.Sequential.false_pass = 0.01; false_fail = 0.01;
            confidence = 0.95; max_reads = None }
        in
        let sweep () = (Diagnosis.Sequential.sweep ~config dict).replays in
        let reference = sweep () in
        let ready = Atomic.make 0 in
        let worker () =
          Atomic.incr ready;
          while Atomic.get ready < 2 do Domain.cpu_relax () done;
          let differ = ref 0 in
          for _ = 1 to 20 do
            if sweep () <> reference then incr differ
          done;
          !differ
        in
        let other = Domain.spawn worker in
        let here = worker () in
        checki "sweeps unlike the reference" 0 (here + Domain.join other));
    case "max_reads budget is respected" (fun () ->
        let _, _, dict = Lazy.force fixture in
        let config =
          { Diagnosis.Sequential.ideal with
            Diagnosis.Sequential.max_reads = Some 2 }
        in
        let sw = Diagnosis.Sequential.sweep ~config dict in
        checkb "capped at 2" true
          (sw.Diagnosis.Sequential.max_session_reads <= 2));
    case "noisy session stops confident and keeps the injected fault"
      (fun () ->
        let t, suite, dict = Lazy.force fixture in
        let fault = Fault.Stuck_at_0 3 in
        let syndrome =
          Diagnosis.syndrome_of t ~vectors:suite.Pipeline.vectors
            ~faults:[ fault ]
        in
        let rng = Rng.create 11 in
        let rate = 0.05 in
        let config =
          { Diagnosis.Sequential.false_pass = rate; false_fail = rate;
            confidence = 0.9; max_reads = None }
        in
        let outcome =
          Diagnosis.Sequential.run ~config dict ~read:(fun i _ ->
              let flip = Rng.float rng 1.0 < rate in
              if flip then not syndrome.(i) else syndrome.(i))
        in
        checkb "stopped on confidence or isolation" true
          (outcome.Diagnosis.Sequential.stop <> Diagnosis.Sequential.Exhausted);
        checkb "injected fault in the isolated class" true
          (List.exists (Fault.equal fault)
             outcome.Diagnosis.Sequential.isolated));
    case "invalid sequential configs are rejected" (fun () ->
        let _, _, dict = Lazy.force fixture in
        let raises f =
          match f () with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        checkb "confidence 0" true
          (raises (fun () ->
               Diagnosis.Sequential.run
                 ~config:
                   { Diagnosis.Sequential.ideal with
                     Diagnosis.Sequential.confidence = 0.0 }
                 dict
                 ~read:(fun _ _ -> false)));
        checkb "max_reads 0" true
          (raises (fun () ->
               Diagnosis.Sequential.run
                 ~config:
                   { Diagnosis.Sequential.ideal with
                     Diagnosis.Sequential.max_reads = Some 0 }
                 dict
                 ~read:(fun _ _ -> false))));
    qcheck_layout ~count:20
      "zero-noise sequential isolates diagnose's equivalence class"
      (fun t ->
        match suite_of t with
        | Error _ -> true
        | Ok suite ->
          let faults = Diagnosis.single_faults t in
          if faults = [] || suite.Pipeline.vectors = [] then true
          else begin
            let dict =
              Diagnosis.build t ~vectors:suite.Pipeline.vectors ~faults
            in
            let sw = Diagnosis.Sequential.sweep dict in
            sw.Diagnosis.Sequential.all_agree
            && sw.Diagnosis.Sequential.max_session_reads
               <= sw.Diagnosis.Sequential.fixed_reads
          end);
    case "distinguishing_vector with a shared handle matches without"
      (fun () ->
        let t, suite, _ = Lazy.force fixture in
        let h = Simulator.make t in
        let f1 = Fault.Stuck_at_0 0 and f2 = Fault.Stuck_at_1 4 in
        checkb "same answer" true
          (Diagnosis.distinguishing_vector ~handle:h t suite.Pipeline.vectors
             f1 f2
          = Diagnosis.distinguishing_vector t suite.Pipeline.vectors f1 f2));
  ]

(* ---------- Dictionary index vs the reference implementations ---------- *)

module Oracle = Diagnosis_oracle
module Seq = Diagnosis.Sequential

(* The layout's suite, indexed dictionary and reference entries; [None]
   when there is nothing to diagnose. *)
let indexed t =
  match suite_of t with
  | Error _ -> None
  | Ok suite ->
    let vectors = suite.Pipeline.vectors in
    let faults = Diagnosis.single_faults t in
    if faults = [] || vectors = [] then None
    else
      Some
        ( vectors,
          Diagnosis.build t ~vectors ~faults,
          Oracle.entries t ~vectors ~faults )

let same_outcome (a : Seq.outcome) (b : Seq.outcome) =
  a.Seq.steps = b.Seq.steps
  && a.Seq.reads = b.Seq.reads
  && List.equal Fault.equal a.Seq.isolated b.Seq.isolated
  && a.Seq.stop = b.Seq.stop
  && a.Seq.all_pass = b.Seq.all_pass
  && Int64.equal
       (Int64.bits_of_float a.Seq.class_confidence)
       (Int64.bits_of_float b.Seq.class_confidence)

(* One session per implementation on the same chip, each read through the
   meter and a 3-read majority from its own copy of one seeded stream. *)
let both_sessions t ~vectors dict entries ~noise ~config ~seed chip =
  let meter = Measurement.uniform t ~false_pass:noise ~false_fail:noise in
  let h = Simulator.make t in
  let read rng _ v =
    (Retest.apply (Retest.policy 3) ~read:(fun _ ->
         Measurement.detects_h meter rng h ~faults:chip v))
      .Retest.failed
  in
  ( Seq.run ~config dict ~read:(read (Rng.create seed)),
    Oracle.run ~config ~vectors entries ~read:(read (Rng.create seed)) )

let differential_configs t =
  List.concat_map
    (fun noise ->
      let meter = Measurement.uniform t ~false_pass:noise ~false_fail:noise in
      List.concat_map
        (fun confidence ->
          List.map
            (fun max_reads ->
              ( noise,
                { Seq.false_pass = Measurement.vector_false_pass meter;
                  false_fail = Measurement.vector_false_fail meter;
                  confidence; max_reads } ))
            [ None; Some 3 ])
        [ 0.9; 0.95; 1.0 ])
    [ 0.0; 0.02; 0.05 ]

(* Two single and two double stuck-at chips drawn from the layout's own
   fault universe; the doubles use two distinct valves. *)
let chips rng faults =
  let fa = Array.of_list faults in
  let pick () = Rng.pick rng fa in
  let rec double () =
    let a = pick () and b = pick () in
    if Fault.valves_involved a = Fault.valves_involved b then double ()
    else [ a; b ]
  in
  let singles = [ [ pick () ]; [ pick () ] ] in
  if Array.length fa < 4 then singles else singles @ [ double (); double () ]

let index_tests =
  [
    qcheck_layout ~count:20
      "sessions equal the per-step reference bit for bit"
      (fun t ->
        match indexed t with
        | None -> true
        | Some (vectors, dict, entries) ->
          let rng = Rng.create (Array.length entries) in
          let chips = chips rng (List.map fst (Array.to_list entries)) in
          List.for_all
            (fun (noise, config) ->
              List.for_all
                (fun chip ->
                  let a, b =
                    both_sessions t ~vectors dict entries ~noise ~config
                      ~seed:(Rng.int rng 1_000_000) chip
                  in
                  same_outcome a b)
                chips)
            (differential_configs t));
    case "only an empty candidate set ends with nothing isolated" (fun () ->
        (* At zero noise every survivor weighs 1, and a vector is read only
           when some survivors predict it failing and some passing, so
           either outcome keeps one: an out-of-model double fault ends in
           some class, never with every candidate eliminated.  The
           empty-handed [Exhausted] exit is reached from an empty
           dictionary. *)
        let t, suite, dict = Lazy.force fixture in
        let vectors = suite.Pipeline.vectors in
        let entries =
          Oracle.entries t ~vectors ~faults:(Diagnosis.single_faults t)
        in
        let nv = Fpva.num_valves t in
        for a = 0 to nv - 1 do
          let chip = [ Fault.Stuck_at_0 a; Fault.Stuck_at_1 ((a + 7) mod nv) ] in
          let got, want =
            both_sessions t ~vectors dict entries ~noise:0.0 ~config:Seq.ideal
              ~seed:a chip
          in
          checkb "same outcome" true (same_outcome got want);
          checkb "a class survives" true (got.Seq.isolated <> [])
        done;
        let empty = Diagnosis.build t ~vectors ~faults:[] in
        let got, want =
          both_sessions t ~vectors empty [||] ~noise:0.0 ~config:Seq.ideal
            ~seed:0 [ Fault.Stuck_at_0 0 ]
        in
        checkb "empty: same outcome" true (same_outcome got want);
        checkb "empty: exhausted before any read" true
          (got.Seq.stop = Seq.Exhausted && got.Seq.reads = 0
          && got.Seq.isolated = []));
    qcheck_layout ~count:20
      "classes, resolution and diagnose equal the list-keyed grouping"
      (fun t ->
        match indexed t with
        | None -> true
        | Some (vectors, dict, entries) ->
          let rng = Rng.create (Array.length entries) in
          let n_v = List.length vectors in
          let flipped (_, s) =
            let s = Array.copy s in
            for _ = 0 to Rng.int rng 3 do
              let v = Rng.int rng n_v in
              s.(v) <- not s.(v)
            done;
            s
          in
          let observations =
            Array.make n_v false
            :: List.concat_map
                 (fun e -> [ snd e; flipped e ])
                 (Array.to_list entries)
          in
          List.equal (List.equal Fault.equal)
            (Diagnosis.equivalence_classes dict)
            (Oracle.equivalence_classes entries)
          && Diagnosis.resolution dict = Oracle.resolution entries
          && List.for_all
               (fun o ->
                 List.equal Fault.equal (Diagnosis.diagnose dict o)
                   (Oracle.diagnose entries o))
               observations);
  ]

(* Every outcome field as text, the confidence by its bits. *)
let outcome_text (o : Seq.outcome) =
  let b = Buffer.create 256 in
  List.iter
    (fun (s : Seq.step) ->
      Printf.bprintf b "%d%c%d " s.Seq.vector
        (if s.Seq.failed then 'F' else 'P')
        s.Seq.survivors)
    o.Seq.steps;
  Printf.bprintf b "| %d %s %b %Lx |" o.Seq.reads
    (match o.Seq.stop with
    | Seq.Isolated -> "isolated"
    | Seq.Confident -> "confident"
    | Seq.Exhausted -> "exhausted")
    o.Seq.all_pass
    (Int64.bits_of_float o.Seq.class_confidence);
  List.iter (fun f -> Printf.bprintf b " %s" (Fault.to_string f)) o.Seq.isolated;
  Buffer.contents b

let paper10_tests =
  [
    case "noisy 10x10 sessions keep their pinned outcomes" (fun () ->
        (* The benchmark's dictionary (254 classes over 40 vectors) at its
           configuration: meters at 0.02, a 3-read majority, confidence
           0.95, one session per single stuck-at fault, session [i]
           reading from stream [Rng.derive 7 i].  The digest pins every
           outcome field, so any change to the additions behind the
           vector choice or the posterior shows here. *)
        let t = Layouts.paper_array 10 in
        let vectors = (Pipeline.run_exn t).Pipeline.vectors in
        let faults = Diagnosis.single_faults t in
        let dict = Diagnosis.build t ~vectors ~faults in
        let meter = Measurement.uniform t ~false_pass:0.02 ~false_fail:0.02 in
        let config =
          { Seq.false_pass = Measurement.vector_false_pass meter;
            false_fail = Measurement.vector_false_fail meter;
            confidence = 0.95; max_reads = None }
        in
        let h = Simulator.make t in
        let text =
          List.mapi
            (fun i fault ->
              let rng = Rng.derive 7 i in
              let read _ v =
                (Retest.apply (Retest.policy 3) ~read:(fun _ ->
                     Measurement.detects_h meter rng h ~faults:[ fault ] v))
                  .Retest.failed
              in
              Fault.to_string fault ^ ": "
              ^ outcome_text (Seq.run ~config dict ~read))
            faults
        in
        checki "sessions" 352 (List.length text);
        check Alcotest.string "outcome digest" "4108a60fa8cca7252ac1ed2733b70aae"
          (Digest.to_hex (Digest.string (String.concat "\n" text))));
  ]

(* Every observed-syndrome entry point refuses a length other than the
   dictionary's vector count, naming itself. *)
let rejects_wrong_length name f =
  case (name ^ " rejects a wrong-length syndrome") (fun () ->
      let _, suite, dict = Lazy.force fixture in
      let n = List.length suite.Pipeline.vectors in
      List.iter
        (fun len ->
          match f dict (Array.make len true) with
          | exception Invalid_argument msg ->
            checkb msg true
              (String.starts_with ~prefix:("Diagnosis." ^ name ^ ":") msg)
          | _ -> Alcotest.failf "%s accepted length %d of %d" name len n)
        [ 0; n - 1; n + 1 ])

let length_tests =
  [
    rejects_wrong_length "diagnose" (fun d o -> ignore (Diagnosis.diagnose d o));
    rejects_wrong_length "diagnose_subsuming" (fun d o ->
        ignore (Diagnosis.diagnose_subsuming d o));
    rejects_wrong_length "rank" (fun d o -> ignore (Diagnosis.rank d o));
  ]

(* ---------- Lifetime wear campaigns ---------- *)

let lifetime_config =
  { Lifetime.chips = 24; wear_steps = 10; retest_every = 2; fault_count = 1;
    classes = [ `Stuck_at_0; `Stuck_at_1 ]; p0 = 0.05; growth = 1.7;
    noise = 0.02; repeats = 3; seed = 11 }

let strip_wall (r : Lifetime.result) = { r with Lifetime.wall_seconds = 0.0 }

let lifetime_tests =
  [
    case "rows and chips are bit-identical at jobs 1 and 4" (fun () ->
        let t, suite, _ = Lazy.force fixture in
        let vectors = suite.Pipeline.vectors in
        let r1 = Lifetime.run ~jobs:1 ~config:lifetime_config t ~vectors in
        let r4 = Lifetime.run ~jobs:4 ~config:lifetime_config t ~vectors in
        checkb "identical results" true (strip_wall r1 = strip_wall r4));
    case "accounting is consistent" (fun () ->
        let t, suite, _ = Lazy.force fixture in
        let r =
          Lifetime.run ~config:lifetime_config t
            ~vectors:suite.Pipeline.vectors
        in
        checki "epochs" 5 r.Lifetime.epochs;
        checki "faulty partition" r.Lifetime.faulty
          (r.Lifetime.detected + r.Lifetime.escapes);
        checki "chips" (List.length r.Lifetime.chips)
          lifetime_config.Lifetime.chips;
        let last = List.nth r.Lifetime.rows (r.Lifetime.epochs - 1) in
        checki "cumulative matches detections + false alarms"
          (r.Lifetime.detected + r.Lifetime.false_alarms)
          last.Lifetime.cumulative;
        (* cumulative detections never decrease; fleets never grow *)
        let rec monotone = function
          | (a : Lifetime.epoch_row) :: (b : Lifetime.epoch_row) :: rest ->
            checkb "cumulative monotone" true
              (a.Lifetime.cumulative <= b.Lifetime.cumulative);
            checkb "fleet shrinks" true (b.Lifetime.fleet <= a.Lifetime.fleet);
            monotone (b :: rest)
          | _ -> ()
        in
        monotone r.Lifetime.rows);
    case "healthy fleet under ideal meters never alarms" (fun () ->
        let t, suite, _ = Lazy.force fixture in
        let config =
          { lifetime_config with Lifetime.fault_count = 0; noise = 0.0 }
        in
        let r = Lifetime.run ~config t ~vectors:suite.Pipeline.vectors in
        checki "no faulty chips" 0 r.Lifetime.faulty;
        checki "no detections" 0 r.Lifetime.detected;
        checki "no false alarms" 0 r.Lifetime.false_alarms);
    case "saturated wear detects every detectable chip at epoch 1" (fun () ->
        let t, suite, _ = Lazy.force fixture in
        let config =
          { lifetime_config with
            Lifetime.p0 = 1.0; growth = 1.0; noise = 0.0; repeats = 1 }
        in
        let r = Lifetime.run ~config t ~vectors:suite.Pipeline.vectors in
        (* With p = 1 the latent fault is permanently active from the first
           epoch: anything ever detected is detected at epoch 1. *)
        List.iter
          (fun (c : Lifetime.chip) ->
            match c.Lifetime.detected_at with
            | Some e -> checki "epoch 1" 1 e
            | None -> ())
          r.Lifetime.chips;
        checkb "some detections" true (r.Lifetime.detected > 0));
    case "out-of-range configs are rejected" (fun () ->
        let t, suite, _ = Lazy.force fixture in
        let vectors = suite.Pipeline.vectors in
        let raises config =
          match Lifetime.run ~config t ~vectors with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        checkb "retest_every > wear_steps" true
          (raises { lifetime_config with Lifetime.retest_every = 11 });
        checkb "p0 out of range" true
          (raises { lifetime_config with Lifetime.p0 = 1.5 });
        checkb "zero chips" true
          (raises { lifetime_config with Lifetime.chips = 0 }));
  ]

(* ---------- Bugfix regressions ---------- *)

let cli = Filename.concat ".." (Filename.concat "bin" "fpva_cli.exe")

let run_cli args = Sys.command (cli ^ " " ^ args ^ " >/dev/null 2>&1")

let non_adjacent_pair t =
  let nv = Fpva.num_valves t in
  let pairs = Fault.adjacent_pairs t in
  let adjacent a b = Array.exists (fun p -> p = (a, b)) pairs in
  let found = ref None in
  for a = 0 to nv - 1 do
    for b = 0 to nv - 1 do
      if !found = None && a <> b && not (adjacent a b) then
        found := Some (a, b)
    done
  done;
  !found

let bugfix_tests =
  [
    case "non-adjacent control leak is invalid, adjacent is valid" (fun () ->
        let t, _, _ = Lazy.force fixture in
        let a, b = (Fault.adjacent_pairs t).(0) in
        checkb "adjacent pair valid" true
          (Fault.is_valid t (Fault.Control_leak (a, b)));
        match non_adjacent_pair t with
        | None -> Alcotest.fail "expected a non-adjacent pair on the 5x5"
        | Some (x, y) ->
          checkb "non-adjacent pair invalid" false
            (Fault.is_valid t (Fault.Control_leak (x, y)));
          (match Fault.validate t (Fault.Control_leak (x, y)) with
          | Error msg ->
            checkb "reason mentions the fluid cell" true
              (String.length msg > 0)
          | Ok () -> Alcotest.fail "validate accepted a non-adjacent leak"));
    case "CLI rejects a non-adjacent leak spec with exit 2" (fun () ->
        let t, _, _ = Lazy.force fixture in
        match non_adjacent_pair t with
        | None -> Alcotest.fail "expected a non-adjacent pair on the 5x5"
        | Some (x, y) ->
          checki "exit 2"
            2
            (run_cli (Printf.sprintf "diagnose -n 5 --inject leak:%d,%d" x y)));
    case "CLI accepts an adjacent leak spec" (fun () ->
        let t, _, _ = Lazy.force fixture in
        let a, b = (Fault.adjacent_pairs t).(0) in
        checki "exit 0" 0
          (run_cli (Printf.sprintf "diagnose -n 5 --inject leak:%d,%d" a b)));
    case "summarize refuses NaN like percentile" (fun () ->
        (match Stats.summarize [| 1.0; Float.nan |] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "summarize accepted NaN");
        let s = Stats.summarize [| 1.0; 2.0; 3.0 |] in
        checkb "stddev" true (abs_float (s.Stats.stddev -. 1.0) < 1e-12));
    case "rank rejects non-positive limits" (fun () ->
        let t, suite, dict = Lazy.force fixture in
        let syndrome =
          Diagnosis.syndrome_of t ~vectors:suite.Pipeline.vectors
            ~faults:[ Fault.Stuck_at_0 0 ]
        in
        (match Diagnosis.rank ~limit:0 dict syndrome with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "rank accepted limit 0");
        match Diagnosis.rank ~limit:(-3) dict syndrome with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "rank accepted a negative limit");
  ]

let tests =
  sequential_tests @ index_tests @ paper10_tests @ length_tests
  @ lifetime_tests @ bugfix_tests
