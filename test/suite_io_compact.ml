(* Tests for suite serialisation, test-set compaction and multi-port
   layouts. *)

open Helpers
open Fpva_grid
open Fpva_testgen
open Fpva_sim

(* ---------- Suite_io ---------- *)

let io_tests =
  [
    case "to_string allocates at most a minor word per byte (20x20)"
      (fun () ->
        (* The text goes straight into one buffer; a suite of 92 164 bytes
           cost 326 091 minor words when each line was formatted on its
           own. *)
        if Sys.backend_type = Sys.Native then begin
          let t, vectors = Lazy.force paper20 in
          let before = Gc.minor_words () in
          let text = Suite_io.to_string t vectors in
          let w =
            (Gc.minor_words () -. before)
            /. float_of_int (String.length text)
          in
          checkb (Printf.sprintf "%.3f words per byte" w) true (w <= 1.0)
        end);
    case "round-trips a full pipeline suite" (fun () ->
        let t = Layouts.paper_array 5 in
        let suite = Pipeline.run_exn t in
        let text = Suite_io.to_string t suite.Pipeline.vectors in
        match Suite_io.of_string t text with
        | Ok vectors ->
          checki "count" (List.length suite.Pipeline.vectors)
            (List.length vectors);
          List.iter2
            (fun (a : Test_vector.t) (b : Test_vector.t) ->
              check Alcotest.string "label" a.Test_vector.label
                b.Test_vector.label;
              checkb "states" true
                (a.Test_vector.open_valves = b.Test_vector.open_valves);
              checkb "golden" true (a.Test_vector.golden = b.Test_vector.golden))
            suite.Pipeline.vectors vectors
        | Error msg -> Alcotest.failf "parse failed: %s" msg);
    case "round-trip preserves detection behaviour" (fun () ->
        let t = Layouts.paper_array 5 in
        let suite = Pipeline.run_exn t in
        let text = Suite_io.to_string t suite.Pipeline.vectors in
        match Suite_io.of_string t text with
        | Ok vectors ->
          for v = 0 to Fpva.num_valves t - 1 do
            checkb "sa0" true
              (Simulator.detected_by_suite t ~faults:[ Fault.Stuck_at_0 v ]
                 vectors);
            checkb "sa1" true
              (Simulator.detected_by_suite t ~faults:[ Fault.Stuck_at_1 v ]
                 vectors)
          done
        | Error msg -> Alcotest.failf "parse failed: %s" msg);
    case "rejects a suite for the wrong architecture" (fun () ->
        let t5 = Layouts.paper_array 5 in
        let t10 = Layouts.paper_array 10 in
        let suite = Pipeline.run_exn t5 in
        let text = Suite_io.to_string t5 suite.Pipeline.vectors in
        checkb "rejected" true
          (match Suite_io.of_string t10 text with
          | Error _ -> true
          | Ok _ -> false));
    case "rejects tampered states" (fun () ->
        let t = Layouts.paper_array 5 in
        let suite = Pipeline.run_exn t in
        let text = Suite_io.to_string t suite.Pipeline.vectors in
        (* flip the first states bit *)
        let idx =
          let rec find i =
            if String.sub text i 7 = "states " then i + 7 else find (i + 1)
          in
          find 0
        in
        let flipped =
          String.mapi
            (fun i ch ->
              if i = idx then (if ch = '0' then '1' else '0') else ch)
            text
        in
        checkb "rejected" true
          (match Suite_io.of_string t flipped with
          | Error _ -> true
          | Ok _ -> false));
    case "rejects garbage" (fun () ->
        let t = Layouts.paper_array 5 in
        List.iter
          (fun text ->
            checkb "rejected" true
              (match Suite_io.of_string t text with
              | Error _ -> true
              | Ok _ -> false))
          [ ""; "nonsense"; "fpva-suite 2\n" ]);
    case "comments and blank lines are tolerated" (fun () ->
        let t = Layouts.paper_array 5 in
        let suite = Pipeline.run_exn t in
        let text = Suite_io.to_string t suite.Pipeline.vectors in
        let commented = "# generated suite\n\n" ^ text in
        checkb "accepted" true
          (match Suite_io.of_string t commented with
          | Ok _ -> true
          | Error _ -> false));
    case "file round trip" (fun () ->
        let t = Layouts.paper_array 5 in
        let suite = Pipeline.run_exn t in
        let path = Filename.temp_file "fpva" ".suite" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Suite_io.write_file path t suite.Pipeline.vectors;
            match Suite_io.read_file path t with
            | Ok vectors ->
              checki "count" (List.length suite.Pipeline.vectors)
                (List.length vectors)
            | Error msg -> Alcotest.failf "read failed: %s" msg));
  ]

(* ---------- Suite_io: malformed inputs never raise ---------- *)

(* The parser contract is Error-not-exception on every malformed input. *)
let expect_error t text =
  match Suite_io.of_string t text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ()
  | exception e -> Alcotest.failf "parser raised %s" (Printexc.to_string e)

(* Rewrite the first line satisfying [pred]; fails the test when no line
   matches (the tamper would otherwise silently test nothing). *)
let tamper_first_line pred f text =
  let hit = ref false in
  let lines =
    List.map
      (fun l ->
        if (not !hit) && pred l then begin
          hit := true;
          f l
        end
        else l)
      (String.split_on_char '\n' text)
  in
  if not !hit then Alcotest.fail "tamper target line not found";
  String.concat "\n" lines

let starts_with prefix l =
  String.length l >= String.length prefix
  && String.sub l 0 (String.length prefix) = prefix

let suite_text =
  lazy
    (let t = Layouts.paper_array 5 in
     let suite = Pipeline.run_exn t in
     (t, suite.Pipeline.vectors, Suite_io.to_string t suite.Pipeline.vectors))

let negative_tests =
  [
    case "non-integer kind ports yield Error, not Failure" (fun () ->
        let t, _, text = Lazy.force suite_text in
        expect_error t
          (tamper_first_line (starts_with "kind flow")
             (fun _ -> "kind flow x 1")
             text);
        expect_error t
          (tamper_first_line (starts_with "kind flow")
             (fun _ -> "kind leak 0 y")
             text);
        expect_error t
          (tamper_first_line (starts_with "kind flow")
             (fun _ -> "kind pierced 0 1 zz")
             text));
    case "out-of-range ports are rejected" (fun () ->
        let t, _, text = Lazy.force suite_text in
        expect_error t
          (tamper_first_line (starts_with "kind flow")
             (fun _ -> "kind flow 0 99")
             text);
        expect_error t
          (tamper_first_line (starts_with "kind flow")
             (fun _ -> "kind flow -1 1")
             text));
    case "bad cut valve ids are rejected" (fun () ->
        let t, _, text = Lazy.force suite_text in
        expect_error t
          (tamper_first_line (starts_with "cut ")
             (fun _ -> "cut 5;zz")
             text);
        expect_error t
          (tamper_first_line (starts_with "cut ")
             (fun _ -> "cut 99999")
             text);
        expect_error t
          (tamper_first_line (starts_with "cut ") (fun _ -> "cut -3") text));
    case "commented cells lines round-trip cleanly" (fun () ->
        (* Regression: the cells branch used to slice the raw line, so a
           trailing comment leaked into the payload. *)
        let t, vectors, text = Lazy.force suite_text in
        let commented =
          String.split_on_char '\n' text
          |> List.map (fun l ->
                 if starts_with "cells " l then l ^ " # trailing comment"
                 else l)
          |> String.concat "\n"
        in
        match Suite_io.of_string t commented with
        | Ok parsed -> checki "count" (List.length vectors) (List.length parsed)
        | Error msg -> Alcotest.failf "parse failed: %s" msg);
  ]

(* ---------- Suite_io: qcheck round-trip ---------- *)

(* Fixture with all four vector kinds: the pipeline suite plus a
   manufactured pierced probe (small suites do not always need one). *)
let roundtrip_fixture =
  lazy
    (let t = Layouts.paper_array 5 in
     let suite = Pipeline.run_exn t in
     let vectors = suite.Pipeline.vectors in
     let has_pierced =
       List.exists
         (fun v ->
           match v.Test_vector.kind with
           | Test_vector.Pierced _ -> true
           | _ -> false)
         vectors
     in
     let vectors =
       if has_pierced then vectors
       else
         let pierced =
           List.find_map
             (fun p ->
               List.find_map
                 (fun v ->
                   let cand = Test_vector.of_pierced_path t p v in
                   match Test_vector.well_formed t cand with
                   | Ok () -> Some cand
                   | Error _ -> None)
                 p.Flow_path.valve_ids)
             suite.Pipeline.flow
         in
         match pierced with
         | Some v -> vectors @ [ v ]
         | None -> vectors
     in
     (t, vectors))

let label_words =
  [| "alpha"; "beta"; "gamma"; "delta"; "block 2"; "retest"; "probe" |]

let random_label rng i =
  let module R = Fpva_util.Rng in
  let k = 1 + R.int rng 3 in
  String.concat " "
    (string_of_int i
    :: List.init k (fun _ -> label_words.(R.int rng (Array.length label_words))))

let roundtrip_prop seed =
  let module R = Fpva_util.Rng in
  let t, vectors = Lazy.force roundtrip_fixture in
  let rng = R.create seed in
  let relabeled =
    List.mapi
      (fun i v -> { v with Test_vector.label = random_label rng i })
      vectors
  in
  let text = Suite_io.to_string t relabeled in
  let commented =
    String.split_on_char '\n' text
    |> List.map (fun l ->
           if l <> "" && R.int rng 3 = 0 then l ^ " # sprinkled comment"
           else l)
    |> String.concat "\n"
  in
  match Suite_io.of_string t commented with
  | Error msg -> failwith ("round-trip parse failed: " ^ msg)
  | Ok parsed ->
    List.length parsed = List.length relabeled
    && List.for_all2
         (fun (a : Test_vector.t) (b : Test_vector.t) ->
           a.Test_vector.label = b.Test_vector.label
           && a.Test_vector.open_valves = b.Test_vector.open_valves
           && a.Test_vector.golden = b.Test_vector.golden)
         relabeled parsed

let roundtrip_tests =
  [
    qcheck ~count:25 "suite round-trips with spaced labels and comments"
      QCheck2.Gen.(int_bound 1_000_000)
      roundtrip_prop;
  ]

(* ---------- Compaction ---------- *)

let compaction_tests =
  [
    case "compaction preserves single-fault coverage" (fun () ->
        let t = Layouts.paper_array 5 in
        let suite = Pipeline.run_exn t in
        let compacted, missed = Compaction.compact t suite.Pipeline.vectors in
        checkb "nothing missed" true (missed = []);
        for v = 0 to Fpva.num_valves t - 1 do
          checkb "sa0" true
            (Simulator.detected_by_suite t ~faults:[ Fault.Stuck_at_0 v ]
               compacted);
          checkb "sa1" true
            (Simulator.detected_by_suite t ~faults:[ Fault.Stuck_at_1 v ]
               compacted)
        done);
    case "compaction shrinks a redundant suite" (fun () ->
        let t = Layouts.paper_array 5 in
        let suite = Pipeline.run_exn t in
        (* duplicate the suite: half must go *)
        let doubled = suite.Pipeline.vectors @ suite.Pipeline.vectors in
        let compacted, _ = Compaction.compact t doubled in
        checkb "at most original size" true
          (List.length compacted <= List.length suite.Pipeline.vectors));
    case "compacted suite is irredundant" (fun () ->
        let t = Layouts.paper_array 5 in
        let suite = Pipeline.run_exn t in
        let compacted, _ = Compaction.compact t suite.Pipeline.vectors in
        let faults = Diagnosis.single_faults t in
        let full_matrix v = Compaction.detects_matrix t ~vectors:v ~faults in
        let covers vectors =
          let m = full_matrix vectors in
          Array.init (List.length faults) (fun j ->
              Array.exists (fun row -> row.(j)) m)
        in
        let baseline = covers compacted in
        List.iteri
          (fun i _ ->
            let without = List.filteri (fun k _ -> k <> i) compacted in
            checkb "dropping loses coverage" true (covers without <> baseline))
          compacted);
    case "compaction keeps order" (fun () ->
        let t = Layouts.paper_array 5 in
        let suite = Pipeline.run_exn t in
        let compacted, _ = Compaction.compact t suite.Pipeline.vectors in
        (* compacted is a subsequence of the original *)
        let rec subseq xs ys =
          match (xs, ys) with
          | [], _ -> true
          | _, [] -> false
          | x :: xr, y :: yr -> if x == y then subseq xr yr else subseq xs yr
        in
        checkb "subsequence" true (subseq compacted suite.Pipeline.vectors));
    case "ratio arithmetic" (fun () ->
        let t = Layouts.paper_array 5 in
        let suite = Pipeline.run_exn t in
        let compacted, _ = Compaction.compact t suite.Pipeline.vectors in
        let r = Compaction.compaction_ratio suite.Pipeline.vectors compacted in
        checkb "0 < r <= 1" true (r > 0.0 && r <= 1.0));
    case "detection matrix agrees with the spec simulator" (fun () ->
        (* detects_matrix reuses one compiled Simulator handle across all
           cells; pin it against the node-by-node reference walk. *)
        let t = Layouts.paper_array 5 in
        let suite = Pipeline.run_exn t in
        let vectors = suite.Pipeline.vectors in
        let faults = Diagnosis.single_faults t in
        let m = Compaction.detects_matrix t ~vectors ~faults in
        List.iteri
          (fun i v ->
            List.iteri
              (fun j f ->
                checkb
                  (Printf.sprintf "cell (%d,%d)" i j)
                  (Graph_oracle.detects t ~faults:[ f ] v) m.(i).(j))
              faults)
          vectors);
  ]

(* ---------- Multi-port layouts ---------- *)

let multiport_layout () =
  (* two sources on the west, two sinks: east and south *)
  let t = Fpva.create ~rows:6 ~cols:6 in
  Fpva.add_port t { Fpva.side = Coord.West; offset = 1; kind = Fpva.Source };
  Fpva.add_port t { Fpva.side = Coord.West; offset = 4; kind = Fpva.Source };
  Fpva.add_port t { Fpva.side = Coord.East; offset = 2; kind = Fpva.Sink };
  Fpva.add_port t { Fpva.side = Coord.South; offset = 3; kind = Fpva.Sink };
  t

let multiport_tests =
  [
    case "multi-port layout validates" (fun () ->
        checkb "ok" true (Fpva.validate (multiport_layout ()) = Ok ()));
    case "cut generation finds multiple arc pairs" (fun () ->
        let t = multiport_layout () in
        let specs = Cut_set.problems t in
        (* four ports on the outline: several admissible arc pairs *)
        checkb "at least one" true (List.length specs >= 1));
    case "pipeline covers a multi-port chip" (fun () ->
        let t = multiport_layout () in
        let suite = Pipeline.run_exn t in
        checkb "ok" true (Pipeline.suite_ok suite));
    case "every single fault detected on the multi-port chip" (fun () ->
        let t = multiport_layout () in
        let suite = Pipeline.run_exn t in
        for v = 0 to Fpva.num_valves t - 1 do
          checkb "sa0" true
            (Simulator.detected_by_suite t ~faults:[ Fault.Stuck_at_0 v ]
               suite.Pipeline.vectors);
          checkb "sa1" true
            (Simulator.detected_by_suite t ~faults:[ Fault.Stuck_at_1 v ]
               suite.Pipeline.vectors)
        done);
    case "paths may use either source and either sink" (fun () ->
        let t = multiport_layout () in
        let suite = Pipeline.run_exn t in
        let ports = Fpva.ports t in
        List.iter
          (fun p ->
            checkb "source kind" true
              (ports.(p.Flow_path.source).Fpva.kind = Fpva.Source);
            checkb "sink kind" true
              (ports.(p.Flow_path.sink).Fpva.kind = Fpva.Sink))
          suite.Pipeline.flow);
    case "cuts separate all sources from all sinks" (fun () ->
        let t = multiport_layout () in
        let cuts, _ = Cut_set.generate t in
        List.iter
          (fun c -> checkb "valid" true (Cut_set.is_valid t c))
          cuts);
  ]

let tests =
  io_tests @ negative_tests @ roundtrip_tests @ compaction_tests
  @ multiport_tests
