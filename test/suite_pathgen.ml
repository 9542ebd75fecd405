(* Tests for the abstract path machinery: Problem, Path_search, Path_ilp,
   Cover. *)

open Helpers
open Fpva_testgen

(* A line graph 0-1-2-...-n with all edges required, 0 the start and n the
   end (both terminal). *)
let line_problem n =
  let edges = Array.init n (fun i -> (i, i + 1)) in
  let required = Array.make n true in
  let terminal = Array.make (n + 1) false in
  terminal.(0) <- true;
  terminal.(n) <- true;
  Problem.build ~num_nodes:(n + 1) ~edges ~required ~terminal
    ~starts:[| 0 |] ~ends:[| n |] ()

(* A 2x3 grid-ish diamond used for branching tests:
     0 - 1 - 2
     |   |   |
     3 - 4 - 5
   start 0 (terminal), end 5 (terminal). *)
let diamond_problem ?pair_constrained () =
  let edges = [| (0, 1); (1, 2); (3, 4); (4, 5); (0, 3); (1, 4); (2, 5) |] in
  let required = Array.make 7 true in
  let terminal = Array.make 6 false in
  terminal.(0) <- true;
  terminal.(5) <- true;
  Problem.build ~num_nodes:6 ~edges ~required
    ?pair_constrained ~terminal ~starts:[| 0 |] ~ends:[| 5 |] ()

let problem_tests =
  [
    case "build rejects inconsistent sizes" (fun () ->
        Alcotest.check_raises "required size"
          (Invalid_argument "Problem.build: required size") (fun () ->
            ignore
              (Problem.build ~num_nodes:2 ~edges:[| (0, 1) |]
                 ~required:[||] ~starts:[| 0 |] ~ends:[| 1 |] ())));
    case "build rejects self loops" (fun () ->
        Alcotest.check_raises "self loop"
          (Invalid_argument "Problem.build: self loop") (fun () ->
            ignore
              (Problem.build ~num_nodes:2 ~edges:[| (1, 1) |]
                 ~required:[| true |] ~starts:[| 0 |] ~ends:[| 1 |] ())));
    case "path_ok accepts the line walk" (fun () ->
        let p = line_problem 4 in
        let path = { Problem.nodes = [ 0; 1; 2; 3; 4 ]; edges = [ 0; 1; 2; 3 ] } in
        checkb "ok" true (Problem.path_ok p path = Ok ()));
    case "path_ok rejects repeated nodes" (fun () ->
        let p = diamond_problem () in
        let path =
          { Problem.nodes = [ 0; 1; 4; 1; 2 ]; edges = [ 0; 5; 5; 1 ] }
        in
        checkb "rejected" true
          (match Problem.path_ok p path with Error _ -> true | Ok () -> false));
    case "path_ok rejects wrong endpoints" (fun () ->
        let p = diamond_problem () in
        let path = { Problem.nodes = [ 1; 2 ]; edges = [ 1 ] } in
        checkb "rejected" true
          (match Problem.path_ok p path with Error _ -> true | Ok () -> false));
    case "path_ok rejects terminal in interior" (fun () ->
        let edges = [| (0, 1); (1, 2); (2, 3) |] in
        let terminal = [| true; false; true; true |] in
        let p =
          Problem.build ~num_nodes:4 ~edges
            ~required:(Array.make 3 false) ~terminal ~starts:[| 0 |]
            ~ends:[| 3 |] ()
        in
        let path = { Problem.nodes = [ 0; 1; 2; 3 ]; edges = [ 0; 1; 2 ] } in
        checkb "rejected" true
          (match Problem.path_ok p path with Error _ -> true | Ok () -> false));
    case "path_ok enforces anti-masking" (fun () ->
        (* visit 1 and 4 without using edge 5 (1-4): path 0-1-2-5-4-3? 3 is
           not an end; use diamond with pair constraint on edge 5 and path
           0-1-2-5 which visits 2 and 5 ... use edge (2,5): path
           0-3-4-5 visits 4 and 5 using edge (4,5): fine.  Construct
           violation: constrain edge (1,4); path 0-1-2-5-4?? 4 not end.
           Simpler: constrain edge (2,5); path 0-1-2 ... end must be 5.
           Path 0-1-4-5 visits 4,5 (edge 3 used); also visits 1 and 4 via
           edge 5? it uses edge 5.  Use path 0-3-4-1-2-5: visits 4 and 5?
           no.  Constrain edge (0,3): path 0-1-4-3? 3 not end... *)
        let pc = Array.make 7 false in
        pc.(5) <- true;
        (* edge 5 = (1,4) *)
        let p = diamond_problem ~pair_constrained:pc () in
        (* path 0-1-2-5-4-3 is invalid (3 not end); instead test the legal
           path 0-1-4-5 (uses the constrained edge: fine) *)
        let legal =
          { Problem.nodes = [ 0; 1; 4; 5 ]; edges = [ 0; 5; 3 ] }
        in
        checkb "legal" true (Problem.path_ok p legal = Ok ());
        (* and the violating path 0-1-2-5-4?? cannot exist ending at 5; use
           a path visiting both 1 and 4 without edge 5: 0-3-4-5 visits 4
           but not 1: fine too.  The only full walk hitting both without
           the edge is 0-1-2-5-4... not simple-endable; so instead check
           the rule on a custom square graph. *)
        let edges = [| (0, 1); (1, 2); (2, 3); (0, 3); (1, 3) |] in
        let pc = Array.make 5 false in
        pc.(4) <- true;
        let terminal = [| true; false; true; false |] in
        let q =
          Problem.build ~num_nodes:4 ~edges
            ~required:(Array.make 5 false) ~pair_constrained:pc ~terminal
            ~starts:[| 0 |] ~ends:[| 2 |] ()
        in
        (* 0-3-... wait path 0,3,2 visits 3 and (1 not visited): ok.
           violating: 0-1-2 visits 1 and ... 3 not visited: ok.
           really violating: 0-3-2 visits 0,3,2; pair edge is (1,3): 1 not
           visited: ok.  Use pair edge (0,2): *)
        ignore q;
        let pc = Array.make 5 false in
        pc.(2) <- true;
        (* edge 2 = (2,3) *)
        let q =
          Problem.build ~num_nodes:4 ~edges
            ~required:(Array.make 5 false) ~pair_constrained:pc ~terminal
            ~starts:[| 0 |] ~ends:[| 2 |] ()
        in
        (* path 0-3-1-2 visits 3 and 2 without crossing edge (2,3):
           violation. uses edges (0,3)=3, (1,3)=4, (1,2)=1 *)
        let bad = { Problem.nodes = [ 0; 3; 1; 2 ]; edges = [ 3; 4; 1 ] } in
        checkb "violation" true
          (match Problem.path_ok q bad with Error _ -> true | Ok () -> false);
        (* path 0-1-2 doesn't visit 3: fine *)
        let good = { Problem.nodes = [ 0; 1; 2 ]; edges = [ 0; 1 ] } in
        checkb "good" true (Problem.path_ok q good = Ok ()));
    qcheck_layout ~count:40 "CSR slices list each node's edges like the oracle"
      (fun t ->
        let prob, _ = Flow_path.problem t in
        let lists = Path_search_oracle.adjacency prob in
        let ok = ref true in
        for n = 0 to prob.Problem.num_nodes - 1 do
          let lo = prob.Problem.adj_off.(n) in
          let slice =
            List.init
              (prob.Problem.adj_off.(n + 1) - lo)
              (fun i -> (prob.Problem.adj_node.(lo + i), prob.Problem.adj_edge.(lo + i)))
          in
          if slice <> lists.(n) then ok := false
        done;
        !ok);
    case "covered / uncovered bookkeeping" (fun () ->
        let p = line_problem 3 in
        let path = { Problem.nodes = [ 0; 1; 2; 3 ]; edges = [ 0; 1; 2 ] } in
        checkb "all covered" true (Problem.all_required_covered p [ path ]);
        checkb "none covered" false (Problem.all_required_covered p []);
        checki "uncovered count" 3 (List.length (Problem.uncovered_required p [])));
  ]

(* ---------- Path_search ---------- *)

let search_tests =
  [
    case "finds the line path" (fun () ->
        let p = line_problem 6 in
        match Path_search.find p ~weight:(Array.make 6 1.0) with
        | Some path ->
          checkb "valid" true (Problem.path_ok p path = Ok ());
          checki "covers all" 6 (List.length path.Problem.edges)
        | None -> Alcotest.fail "no path");
    case "prefers heavy edges" (fun () ->
        (* diamond: two main routes; weight the bottom one *)
        let p = diamond_problem () in
        let weight = [| 0.0; 0.0; 5.0; 5.0; 5.0; 0.0; 0.0 |] in
        match Path_search.find p ~weight with
        | Some path ->
          (* must use bottom edges 2,3,4: path 0-3-4-5 *)
          checkb "bottom route" true
            (List.sort compare path.Problem.edges = [ 2; 3; 4 ])
        | None -> Alcotest.fail "no path");
    case "returns None when start cannot reach end" (fun () ->
        let edges = [| (0, 1); (2, 3) |] in
        let terminal = [| true; false; false; true |] in
        let p =
          Problem.build ~num_nodes:4 ~edges
            ~required:(Array.make 2 false) ~terminal ~starts:[| 0 |]
            ~ends:[| 3 |] ()
        in
        checkb "none" true (Path_search.find p ~weight:(Array.make 2 1.0) = None));
    case "rejects negative weights" (fun () ->
        let p = line_problem 2 in
        Alcotest.check_raises "negative"
          (Invalid_argument "Path_search.find: negative weight") (fun () ->
            ignore (Path_search.find p ~weight:[| 1.0; -1.0 |])));
    case "NaN weights are rejected" (fun () ->
        let p = line_problem 2 in
        Alcotest.check_raises "NaN"
          (Invalid_argument "Path_search.find: NaN weight") (fun () ->
            ignore (Path_search.find p ~weight:[| nan; 1.0 |])));
    case "rejects an adjacency slot out of range" (fun () ->
        (* the dives index the CSR arrays unchecked, so [find] must refuse
           a [Problem.t] whose mutable arrays were changed after [build] *)
        let raises mutate =
          let p = diamond_problem () in
          mutate p;
          match Path_search.find p ~weight:(Array.make 7 1.0) with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        checkb "node" true
          (raises (fun p -> p.Problem.adj_node.(0) <- p.Problem.num_nodes));
        checkb "edge" true
          (raises (fun p -> p.Problem.adj_edge.(3) <- p.Problem.num_edges)));
    case "no start: None, with positive or all-zero weights" (fun () ->
        (* positive weights used to raise from the constructive seeds, and
           all-zero weights used to loop forever over the empty start set *)
        let p =
          Problem.build ~num_nodes:3
            ~edges:[| (0, 1); (1, 2) |] ~required:[| true; true |]
            ~starts:[||] ~ends:[| 2 |] ()
        in
        checkb "positive" true (Path_search.find p ~weight:[| 1.0; 1.0 |] = None);
        checkb "zero" true (Path_search.find p ~weight:[| 0.0; 0.0 |] = None));
    case "no end: None" (fun () ->
        let p =
          Problem.build ~num_nodes:3
            ~edges:[| (0, 1); (1, 2) |] ~required:[| true; true |]
            ~starts:[| 0 |] ~ends:[||] ()
        in
        checkb "positive" true (Path_search.find p ~weight:[| 1.0; 1.0 |] = None);
        checkb "zero" true (Path_search.find p ~weight:[| 0.0; 0.0 |] = None));
    case "deterministic for equal params" (fun () ->
        let p = diamond_problem () in
        let w = Array.make 7 1.0 in
        let a = Path_search.find p ~weight:w in
        let b = Path_search.find p ~weight:w in
        checkb "same" true (a = b));
    qcheck_layout ~count:60 "found paths always satisfy path_ok"
      (fun t ->
        let prob, _ = Flow_path.problem t in
        let weight =
          Array.map (fun r -> if r then 1.0 else 0.0) prob.Problem.required
        in
        match Path_search.find prob ~weight with
        | Some path -> Problem.path_ok prob path = Ok ()
        | None -> true);
  ]

(* ---------- Path_search against its list-based oracle ---------- *)

module Trace = Fpva_util.Trace

(* [Path_search.find] under tracing, with the steps and dives it counted. *)
let counted_find ~params prob ~weight =
  Trace.reset ();
  Trace.enable ();
  let path =
    Fun.protect ~finally:Trace.disable (fun () ->
        Path_search.find ~params prob ~weight)
  in
  ( path,
    Trace.count (Trace.counter "path_search.steps"),
    Trace.count (Trace.counter "path_search.dives") )

let budgets = [ 1; 300; 5_000 ]

(* Every (seed, budget) run of [find] equals the oracle's: path, steps and
   dives. *)
let agrees_with_oracle ~seeds prob ~weight =
  List.for_all
    (fun seed ->
      List.for_all
        (fun step_budget ->
          let params = { Path_search.step_budget; seed } in
          counted_find ~params prob ~weight
          = Path_search_oracle.find ~params prob ~weight)
        budgets)
    seeds

(* Required edges at 0/1; the same with one edge at 1000; random
   non-negative weights on a coarse grid, so that weights tie. *)
let weight_profiles (prob : Problem.t) ~salt =
  let m = prob.Problem.num_edges in
  let base = Array.map (fun r -> if r then 1.0 else 0.0) prob.Problem.required in
  let rng = Fpva_util.Rng.create (salt + m) in
  let heavy = Array.copy base in
  if m > 0 then heavy.(Fpva_util.Rng.int rng m) <- 1000.0;
  let random =
    Array.init m (fun _ -> 0.5 *. float_of_int (Fpva_util.Rng.int rng 4))
  in
  [ base; heavy; random ]

(* Node 1 is a hub of degree 7: two parallel edges to 0, two to 2, and
   one each to 3, 4 and 5.  Starts 0 and 2, ends 6 and 5, nodes 0 and 6
   terminal, every fourth edge pair-constrained. *)
let hub_problem () =
  let edges =
    [| (0, 1); (0, 1); (1, 2); (1, 3); (1, 4); (1, 5); (2, 3); (3, 4); (4, 5);
       (5, 6); (2, 6); (1, 2); (3, 6) |]
  in
  let m = Array.length edges in
  let pc = Array.init m (fun e -> e mod 4 = 3) in
  let terminal = [| true; false; false; false; false; false; true |] in
  Problem.build ~num_nodes:7 ~edges
    ~required:(Array.init m (fun e -> e mod 3 <> 2))
    ~pair_constrained:pc ~terminal ~starts:[| 0; 2 |] ~ends:[| 6; 5 |] ()

(* The parallel pair 1-2 has both edges pair-constrained: a path through 1
   and 2 would leave one of them untraversed, so the pair is never
   admissible.  End 6 is terminal and reached by the pair-constrained arcs
   4-6 and 5-6, so the end hop 5 -> 6 of a path through 4 fails the
   anti-masking test.  End 4 is not terminal, so paths also pass it.
   Starts 0 and 3, node 0 terminal. *)
let masking_problem () =
  let edges =
    [| (0, 1); (1, 2); (1, 2); (2, 3); (3, 4); (4, 1); (4, 5); (5, 6); (3, 6);
       (2, 5); (5, 1); (4, 6); (3, 5) |]
  in
  let pc = Array.make (Array.length edges) false in
  List.iter (fun e -> pc.(e) <- true) [ 1; 2; 5; 7; 11; 12 ];
  let terminal = [| true; false; false; false; false; false; true |] in
  Problem.build ~num_nodes:7 ~edges ~required:(Array.make 13 true)
    ~pair_constrained:pc ~terminal ~starts:[| 0; 3 |] ~ends:[| 6; 4 |] ()

let oracle_tests =
  [
    case "hub with parallel edges agrees with the oracle" (fun () ->
        let p = hub_problem () in
        checkb "hub degree > 4" true (p.Problem.adj_off.(2) - p.Problem.adj_off.(1) > 4);
        List.iter
          (fun weight ->
            checkb "agrees" true
              (agrees_with_oracle ~seeds:(List.init 20 Fun.id) p ~weight);
            match Path_search.find p ~weight with
            | Some path -> checkb "valid" true (Problem.path_ok p path = Ok ())
            | None -> Alcotest.fail "no path")
          (Array.make 13 1.0 :: weight_profiles p ~salt:3));
    case "anti-masking instance agrees with the oracle" (fun () ->
        let p = masking_problem () in
        List.iter
          (fun weight ->
            checkb "agrees" true
              (agrees_with_oracle ~seeds:(List.init 20 Fun.id) p ~weight);
            match Path_search.find p ~weight with
            | Some path -> checkb "valid" true (Problem.path_ok p path = Ok ())
            | None -> Alcotest.fail "no path")
          (Array.make 13 1.0 :: weight_profiles p ~salt:5));
    qcheck_layout ~count:30 "find agrees with the list-based oracle"
      (fun t ->
        let flow, _ = Flow_path.problem t in
        let forbidden, _ =
          Flow_path.problem ~forbidden_valves:[ Fpva_grid.Fpva.num_valves t / 2 ] t
        in
        let problems =
          (flow :: List.map fst (Cut_set.problems t)) @ [ forbidden ]
        in
        List.for_all
          (fun prob ->
            List.for_all
              (fun weight ->
                agrees_with_oracle ~seeds:[ 0x5eed; 7; 1234 ] prob ~weight)
              (weight_profiles prob ~salt:(Fpva_grid.Fpva.num_valves t)))
          problems);
  ]

(* ---------- Path_ilp ---------- *)

let ilp_tests =
  [
    case "ILP finds the line path" (fun () ->
        let p = line_problem 4 in
        match Path_ilp.find p ~weight:(Array.make 4 1.0) with
        | Some path ->
          checkb "valid" true (Problem.path_ok p path = Ok ());
          checki "full" 4 (List.length path.Problem.edges)
        | None -> Alcotest.fail "no path");
    case "ILP maximises weight exactly" (fun () ->
        let p = diamond_problem () in
        (* best path covers 5 of 7 edges: e.g. 0-1-2-5-4-3?? not simple to
           end... enumerate: simple 0..5 paths: 0-1-2-5 (3 edges),
           0-3-4-5 (3), 0-1-4-5 (3), 0-3-4-1-2-5 (5), 0-1-4-3?? no.
           So optimum covers 5 edges. *)
        match Path_ilp.find p ~weight:(Array.make 7 1.0) with
        | Some path -> checki "five edges" 5 (List.length path.Problem.edges)
        | None -> Alcotest.fail "no path");
    case "ILP respects anti-masking" (fun () ->
        let edges = [| (0, 1); (1, 2); (2, 3); (0, 3); (1, 3) |] in
        let pc = Array.make 5 false in
        pc.(2) <- true;
        let terminal = [| true; false; true; false |] in
        let q =
          Problem.build ~num_nodes:4 ~edges
            ~required:(Array.make 5 false) ~pair_constrained:pc ~terminal
            ~starts:[| 0 |] ~ends:[| 2 |] ()
        in
        (* weights push toward the violating walk 0-3-1-2 *)
        let weight = [| 0.0; 1.0; 0.0; 1.0; 1.0 |] in
        match Path_ilp.find q ~weight with
        | Some path -> checkb "legal" true (Problem.path_ok q path = Ok ())
        | None -> Alcotest.fail "no path");
    case "ILP infeasible when no route exists" (fun () ->
        let edges = [| (0, 1); (2, 3) |] in
        let terminal = [| true; false; false; true |] in
        let p =
          Problem.build ~num_nodes:4 ~edges
            ~required:(Array.make 2 false) ~terminal ~starts:[| 0 |]
            ~ends:[| 3 |] ()
        in
        checkb "none" true (Path_ilp.find p ~weight:(Array.make 2 1.0) = None));
    slow_case "minimum_cover on a 3x3 full array" (fun () ->
        let t = small_full_layout 3 3 in
        let prob, _ = Flow_path.problem t in
        match Path_ilp.minimum_cover prob ~max_paths:3 with
        | Some paths ->
          checkb "covers" true (Problem.all_required_covered prob paths);
          checkb "each valid" true
            (List.for_all (fun p -> Problem.path_ok prob p = Ok ()) paths)
        | None -> Alcotest.fail "cover not found");
    slow_case "ILP and search agree on small instances" (fun () ->
        (* On a 2x3 array the single-path optimum is small enough for both
           engines to find the same score. *)
        let t = small_full_layout 2 3 in
        let prob, _ = Flow_path.problem t in
        let weight =
          Array.map (fun r -> if r then 1.0 else 0.0) prob.Problem.required
        in
        let score = function
          | Some (path : Problem.path) ->
            List.fold_left (fun acc e -> acc +. weight.(e)) 0.0 path.Problem.edges
          | None -> -1.0
        in
        let ilp = score (Path_ilp.find prob ~weight) in
        let search = score (Path_search.find prob ~weight) in
        check (Alcotest.float 1e-6) "same optimum" ilp search);
  ]

(* ---------- Cover ---------- *)

(* The residual-set cover over a problem's required edges, each item its
   own edge: the form the hierarchy's top level uses. *)
let cover_edges ?seeds p =
  Cover.run ?seeds Cover.default_engine p
    ~pending:(Array.copy p.Problem.required) ~edge_of:Option.some
    ~decode:Fun.id ~retires:(fun path -> path.Problem.edges)

let cover_tests =
  [
    case "covers the line in one path" (fun () ->
        let p = line_problem 5 in
        let outcome = cover_edges p in
        checki "one path" 1 (List.length outcome.Cover.paths);
        checkb "nothing uncovered" true (outcome.Cover.uncovered = []));
    case "diamond needs two paths" (fun () ->
        let p = diamond_problem () in
        let outcome = cover_edges p in
        checkb "covered" true (Problem.all_required_covered p outcome.Cover.paths);
        checki "two paths" 2 (List.length outcome.Cover.paths));
    case "unreachable required edges reported" (fun () ->
        (* edge (2,3) unreachable from start/end component *)
        let edges = [| (0, 1); (2, 3) |] in
        let terminal = [| true; true; false; false |] in
        let p =
          Problem.build ~num_nodes:4 ~edges
            ~required:[| true; true |] ~terminal ~starts:[| 0 |] ~ends:[| 1 |]
            ()
        in
        let outcome = cover_edges p in
        check (Alcotest.list Alcotest.int) "uncovered" [ 1 ]
          outcome.Cover.uncovered);
    case "seeds are used when they cover" (fun () ->
        let p = line_problem 4 in
        let seed = { Problem.nodes = [ 0; 1; 2; 3; 4 ]; edges = [ 0; 1; 2; 3 ] } in
        let outcome = cover_edges ~seeds:[ seed ] p in
        checkb "seed kept" true (List.mem seed outcome.Cover.paths));
    case "invalid seeds dropped" (fun () ->
        let p = line_problem 4 in
        let bogus = { Problem.nodes = [ 0; 2 ]; edges = [ 1 ] } in
        let outcome = cover_edges ~seeds:[ bogus ] p in
        checkb "covered anyway" true
          (Problem.all_required_covered p outcome.Cover.paths);
        checkb "bogus dropped" true (not (List.mem bogus outcome.Cover.paths)));
    qcheck_layout ~count:40 "cover accounts for every required edge"
      (fun t ->
        let prob, _ = Flow_path.problem t in
        let outcome = cover_edges prob in
        (* paths plus the uncovered report account for all required edges;
           leftovers must defeat a reseeded targeted search too *)
        let cov = Problem.covered prob outcome.Cover.paths in
        let accounted = ref true in
        Array.iteri
          (fun e r ->
            if r && (not cov.(e)) && not (List.mem e outcome.Cover.uncovered)
            then accounted := false)
          prob.Problem.required;
        !accounted
        && List.for_all
             (fun e ->
               let weight = Array.make prob.Problem.num_edges 0.0 in
               weight.(e) <- 1000.0;
               let params =
                 { Path_search.default_params with Path_search.seed = 4242 }
               in
               match Path_search.find ~params prob ~weight with
               | None -> true
               | Some p -> not (List.mem e p.Problem.edges))
             outcome.Cover.uncovered);
  ]

(* ---------- pinned suites ----------

   Suite texts pinned by digest, with the path-search steps, simplex pivots
   and branch-and-bound nodes the traced run spent: any change to the
   search's draw order, candidate order or step accounting, or to the
   simplex's pricing, ratio test or arithmetic, moves these.  Beside the paper's arrays under the default
   configuration, the rows pin figure8 (the only one whose cut stage stalls
   three times and runs its targeted pass and pierced probes), figure9
   (whose hierarchy falls back to the direct cover for 18 of its 19 flow
   paths), the direct model, the exact ILP engine, and an irregular
   two-source layout whose routes cross block borders through channels and
   whose second source re-feeds five paths. *)

(* 10x12 with six open channels and three obstacles; ports in index order:
   South sink at column 1, North source at column 8, then the default west
   source and east sink. *)
let irregular_two_source () =
  let open Fpva_grid in
  let t = Fpva.create ~rows:10 ~cols:12 in
  List.iter
    (fun e -> Fpva.set_edge t e Fpva.Open_channel)
    Coord.
      [ E (cell 2 4); E (cell 2 5); S (cell 3 7); S (cell 4 7); E (cell 6 9);
        E (cell 8 0) ];
  List.iter
    (fun (r, c) -> Fpva.set_obstacle t (Coord.cell r c))
    [ (7, 2); (7, 3); (3, 10) ];
  Fpva.add_port t { Fpva.side = Coord.South; offset = 1; kind = Fpva.Sink };
  Fpva.add_port t { Fpva.side = Coord.North; offset = 8; kind = Fpva.Source };
  Layouts.with_default_ports t

let ilp_config =
  { Pipeline.direct_config with
    Pipeline.engine = Cover.Ilp Fpva_milp.Branch_bound.default_options }

let pinned_tests =
  List.map
    (fun (name, layout, config, total, digest, (steps, pivots, nodes)) ->
      slow_case (name ^ " suite is pinned") (fun () ->
          let t = layout () in
          Trace.reset ();
          Trace.enable ();
          let r =
            Fun.protect ~finally:Trace.disable (fun () ->
                Pipeline.run_exn ~config t)
          in
          checki "N" total r.Pipeline.total;
          check Alcotest.string "digest" digest
            (Digest.to_hex
               (Digest.string (Suite_io.to_string t r.Pipeline.vectors)));
          let count name = Trace.count (Trace.counter name) in
          checki "path_search.steps" steps (count "path_search.steps");
          checki "simplex.pivots" pivots (count "simplex.pivots");
          checki "bb.nodes" nodes (count "bb.nodes")))
    Fpva_grid.Layouts.
      [ ("paper 5x5", (fun () -> paper_array 5), Pipeline.default_config, 17,
         "7d0c3a4bb6968c0577de3d33c6702658", (2_490_274, 0, 0));
        ("paper 10x10", (fun () -> paper_array 10), Pipeline.default_config,
         40, "20a29170625e8a0c54d13b3a9937aca4", (6_400_262, 0, 0));
        ("figure8", figure8, Pipeline.default_config, 44,
         "2bedb51af5f36e40f26d138570a9d2be", (8_140_141, 0, 0));
        ("figure9", figure9, Pipeline.default_config, 88,
         "b75514033efce2874457e87ff198d130", (19_769_680, 0, 0));
        ("direct paper 10x10", (fun () -> paper_array 10),
         Pipeline.direct_config, 34, "b16ca49944ef4466947e90c6a3fefa1c",
         (6_400_357, 0, 0));
        ("ILP full 4x4", (fun () -> full ~rows:4 ~cols:4), ilp_config, 15,
         "e48f0708a10974e8b4dad5729d183cd5", (0, 58_374, 659));
        ("irregular 10x12", irregular_two_source, Pipeline.default_config, 66,
         "e7967698d8e299ce37764a4eebe1b14e", (13_730_000, 0, 0));
        ("direct irregular 10x12", irregular_two_source,
         Pipeline.direct_config, 66, "e7967698d8e299ce37764a4eebe1b14e",
         (13_000_000, 0, 0)) ]

let tests =
  problem_tests @ search_tests @ oracle_tests @ ilp_tests @ cover_tests
  @ pinned_tests
