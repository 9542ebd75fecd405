type single_path = Problem.t -> weight:float array -> Problem.path option

type engine =
  | Search of Path_search.params
  | Ilp of Fpva_milp.Branch_bound.options
  | Custom of custom

and custom = { cname : string; find : single_path }

let default_engine = Search Path_search.default_params

let engine_name = function
  | Search _ -> "search"
  | Ilp _ -> "ilp"
  | Custom c -> c.cname

type 'a outcome = { paths : 'a list; uncovered : int list }

type stats = {
  mutable attempts : int;
  mutable failures : int;
  mutable rejected : int;
  mutable fallbacks : int;
  mutable budget_hits : int;
}

let fresh_stats () =
  { attempts = 0; failures = 0; rejected = 0; fallbacks = 0; budget_hits = 0 }

let default_salts = [ 17; 7919; 104729 ]

let valid problem p =
  match Problem.path_ok problem p with Ok () -> true | Error _ -> false

(* Asynchronous/resource exceptions must escape; anything else from an
   external engine is contained as a failed attempt. *)
let guarded f =
  try f () with
  | (Stack_overflow | Out_of_memory | Sys.Break) as e -> raise e
  | _ -> None

(* Classified primary attempt, for the fallback decision. *)
let attempt ?(budget = Budget.unlimited) stats engine problem ~weight =
  let bump f = match stats with Some s -> f s | None -> () in
  bump (fun s -> s.attempts <- s.attempts + 1);
  let audit = function
    | Some p when valid problem p -> `Found p
    | Some _ ->
      bump (fun s -> s.rejected <- s.rejected + 1);
      `Failed None
    | None -> `Failed None
  in
  match engine with
  | Search params -> audit (Path_search.find ~params problem ~weight)
  | Custom c -> audit (guarded (fun () -> c.find problem ~weight))
  | Ilp options -> (
    let options = Budget.clamp_bb budget options in
    match Path_ilp.find_status ~bb_options:options problem ~weight with
    | Some p, Path_ilp.Proven when valid problem p -> `Found p
    | Some p, Path_ilp.Truncated when valid problem p ->
      (* usable incumbent, but the search fallback may beat it *)
      `Failed (Some p)
    | Some _, _ ->
      bump (fun s -> s.rejected <- s.rejected + 1);
      `Failed None
    | None, _ -> `Failed None)

let covered_weight problem ~weight p =
  let seen = Array.make problem.Problem.num_edges false in
  List.fold_left
    (fun acc e ->
      if seen.(e) then acc
      else begin
        seen.(e) <- true;
        acc +. weight.(e)
      end)
    0.0 p.Problem.edges

let find_robust ?(budget = Budget.unlimited) ?stats ?salts engine problem
    ~weight =
  let bump f = match stats with Some s -> f s | None -> () in
  let salts =
    match salts with
    | Some s -> s
    | None -> ( match engine with Search _ -> [] | Ilp _ | Custom _ -> default_salts)
  in
  if Budget.exhausted budget then begin
    bump (fun s -> s.budget_hits <- s.budget_hits + 1);
    None
  end
  else begin
    match attempt ~budget stats engine problem ~weight with
    | `Found p -> Some p
    | `Failed incumbent ->
      bump (fun s -> s.failures <- s.failures + 1);
      (* Fallback chain: independently-seeded randomized searches.  The
         base parameters come from the engine itself when it already is a
         search (keeping its step budget), from the defaults otherwise. *)
      let params =
        match engine with
        | Search p -> p
        | Ilp _ | Custom _ -> Path_search.default_params
      in
      let best a b =
        match (a, b) with
        | None, x | x, None -> x
        | Some p, Some q ->
          if
            covered_weight problem ~weight q
            > covered_weight problem ~weight p
          then Some q
          else Some p
      in
      let recovered =
        List.fold_left
          (fun acc salt ->
            if Budget.exhausted budget then begin
              bump (fun s -> s.budget_hits <- s.budget_hits + 1);
              acc
            end
            else begin
              let found =
                Path_search.find
                  ~params:
                    { params with
                      Path_search.seed = params.Path_search.seed + salt }
                  problem ~weight
              in
              match found with
              | Some p when valid problem p -> best acc (Some p)
              | Some _ | None -> acc
            end)
          None salts
      in
      (match recovered with
      | Some _ -> bump (fun s -> s.fallbacks <- s.fallbacks + 1)
      | None -> ());
      best incumbent recovered
  end

let find_salted ?budget ?stats ~salt engine problem ~weight =
  match engine with
  | Search params ->
    find_robust ?budget ?stats ~salts:[]
      (Search { params with Path_search.seed = params.Path_search.seed + salt })
      problem ~weight
  | Ilp _ | Custom _ ->
    find_robust ?budget ?stats ~salts:[ salt ] engine problem ~weight

(* The loop every stage shares.  A gainless path usually means the
   weighting points at items the engine cannot reach from here; each one
   moves the search to a fresh salt, and three in a row end the loop. *)
let greedy ?(budget = Budget.unlimited) ?stats engine problem ~pending ~weight
    ~absorb =
  let rec loop salt stall =
    if pending () && stall < 3 && not (Budget.exhausted budget) then begin
      match find_salted ~budget ?stats ~salt engine problem ~weight:(weight ())
      with
      | None -> ()
      | Some p -> if absorb p then loop salt 0 else loop (salt + 1) (stall + 1)
    end
  in
  loop 0 0

let targeted ?(budget = Budget.unlimited) ?stats engine ~accept attempts =
  List.find_map
    (fun (problem, weight, salt) ->
      if Budget.exhausted budget then None
      else
        Option.bind
          (find_salted ~budget ?stats ~salt engine problem ~weight)
          accept)
    attempts

(* A few independently-seeded tries: randomised dives occasionally miss an
   awkward item that another jitter stream reaches. *)
let focus_salts = [ 104729; 31337; 777; 999983 ]

let run ?budget ?stats ?(seeds = []) engine problem ~pending ~edge_of ~decode
    ~retires =
  let accepted = ref [] in
  let take path retired =
    List.iter (fun i -> pending.(i) <- false) retired;
    accepted := path :: !accepted
  in
  let absorb p =
    let path = decode p in
    let retired = retires path in
    let gained = List.exists (fun i -> pending.(i)) retired in
    if gained then take path retired;
    gained
  in
  List.iter
    (fun seed ->
      if Problem.path_ok problem seed = Ok () then ignore (absorb seed))
    seeds;
  let weight () =
    let w = Array.make problem.Problem.num_edges 0.0 in
    Array.iteri
      (fun i needed ->
        if needed then Option.iter (fun e -> w.(e) <- 1.0) (edge_of i))
      pending;
    w
  in
  greedy ?budget ?stats engine problem
    ~pending:(fun () -> Array.exists Fun.id pending)
    ~weight ~absorb;
  (* Targeted mop-up: the greedy weighting can starve awkward items (the
     best-scoring path keeps missing them), so the engine is pointed at each
     leftover alone before it is declared uncoverable.  A pure single-edge
     weight: any background weight drags the optimum through other awkward
     items (typically clustered near port cells, where multi-source
     re-feeding untests the target); with a pure weight every path through
     the target ties, the engine's tie-break prefers the shortest, and short
     paths are testable. *)
  let mop_up i e =
    let weight = Array.make problem.Problem.num_edges 0.0 in
    weight.(e) <- 1000.0;
    let accept p =
      let path = decode p in
      let retired = retires path in
      if List.mem i retired then Some (path, retired) else None
    in
    Option.iter
      (fun (path, retired) -> take path retired)
      (targeted ?budget ?stats engine ~accept
         (List.map (fun salt -> (problem, weight, i + salt)) focus_salts))
  in
  Array.iteri
    (fun i needed -> if needed then Option.iter (mop_up i) (edge_of i))
    pending;
  let uncovered = ref [] in
  for i = Array.length pending - 1 downto 0 do
    if pending.(i) then uncovered := i :: !uncovered
  done;
  { paths = List.rev !accepted; uncovered = !uncovered }
