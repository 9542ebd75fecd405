(* Solver and I/O fault injection for the resilience tests.

   [wrap] puts any [Cover.engine] behind a misbehaving proxy so the
   resilience machinery ([Cover.find_robust] fallbacks, [Budget]
   accounting, [Pipeline] degradation reports) is exercised
   deterministically.  The injected behaviours mirror how a real MILP
   backend fails: it burns its deadline and returns nothing, it reports
   infeasibility spuriously under a node cap, it returns a garbage
   incumbent after truncation, or it crashes transiently for the first few
   calls.  [Io.wrap] does the same to a [Journal.io].  No global state
   beyond the per-wrapper [monitor], so independent tests do not
   interfere. *)

module Cover = Fpva_testgen.Cover
module Problem = Fpva_testgen.Problem

type fault =
  | Deadline_exhaustion
      (* every call consumes its budget and produces nothing: a solver
         that hits [time_limit] with no incumbent *)
  | Spurious_infeasible of int
      (* every [k]-th call (1-based; [k <= 1] means every call) returns
         "no path" even when one exists: an aggressive node cap making
         branch-and-bound declare infeasibility wrongly *)
  | Garbage_incumbent
      (* every returned path is corrupted before delivery: a truncated
         solve handing back an inconsistent incumbent; the
         [Problem.path_ok] audit in [Cover] must catch every one *)
  | Transient_failure of int
      (* the first [n] calls raise [Injected_failure]; later calls pass
         through: a backend that recovers after a restart *)

(* Contained by the exception guard of [Cover.find_robust]. *)
exception Injected_failure

(* [calls] counts engine invocations seen by the wrapper, [injected] the
   invocations where the fault actually fired. *)
type monitor = { mutable calls : int; mutable injected : int }

let monitor () = { calls = 0; injected = 0 }

let fault_name = function
  | Deadline_exhaustion -> "deadline-exhaustion"
  | Spurious_infeasible k -> Printf.sprintf "spurious-infeasible-%d" k
  | Garbage_incumbent -> "garbage-incumbent"
  | Transient_failure n -> Printf.sprintf "transient-failure-%d" n

(* Break a valid path so that [Problem.path_ok] must reject it.  Several
   corruption shapes (cycled per injection) so the audit is exercised on
   more than one inconsistency; each shape is skipped when the path is too
   short for it to actually invalidate anything. *)
let corrupt ~mode (p : Problem.path) =
  let drop_last_edge () =
    match List.rev p.Problem.edges with
    | _ :: rest -> Some { p with Problem.edges = List.rev rest }
    | [] -> None
  in
  let dup_first_node () =
    match p.Problem.nodes with
    | n :: rest -> Some { p with Problem.nodes = n :: n :: rest }
    | [] -> None
  in
  let rotate_edges () =
    (* needs at least two edges: rotating one edge is the identity *)
    match p.Problem.edges with
    | e :: (_ :: _ as rest) -> Some { p with Problem.edges = rest @ [ e ] }
    | _ -> None
  in
  let order =
    match mode mod 3 with
    | 0 -> [ drop_last_edge; dup_first_node; rotate_edges ]
    | 1 -> [ dup_first_node; rotate_edges; drop_last_edge ]
    | _ -> [ rotate_edges; drop_last_edge; dup_first_node ]
  in
  match List.find_map (fun f -> f ()) order with
  | Some q -> q
  | None -> { Problem.nodes = []; edges = [] }

(* Deterministic meter noise for retest tests: wraps a per-attempt read
   function ([Retest.apply]'s shape), inverting the result of every
   attempt whose 0-based index appears in [flips]. *)
let flaky_read ~flips read attempt =
  let r = read attempt in
  if List.mem attempt flips then not r else r

(* [wrap fault base] is a [Custom] engine that consults [base] (one
   audited attempt: [Cover.find_robust] with no fallback salts) and then
   injects [fault]. *)
let wrap ?monitor:m fault base =
  let m = match m with Some m -> m | None -> monitor () in
  let base_find problem ~weight =
    Cover.find_robust ~salts:[] base problem ~weight
  in
  let find problem ~weight =
    m.calls <- m.calls + 1;
    match fault with
    | Deadline_exhaustion ->
      m.injected <- m.injected + 1;
      None
    | Spurious_infeasible k ->
      if (m.calls - 1) mod max 1 k = 0 then begin
        m.injected <- m.injected + 1;
        None
      end
      else base_find problem ~weight
    | Garbage_incumbent -> (
      match base_find problem ~weight with
      | None -> None
      | Some p ->
        m.injected <- m.injected + 1;
        Some (corrupt ~mode:m.injected p))
    | Transient_failure n ->
      if m.calls <= n then begin
        m.injected <- m.injected + 1;
        raise Injected_failure
      end
      else base_find problem ~weight
  in
  Cover.Custom
    {
      Cover.cname =
        Printf.sprintf "chaos:%s(%s)" (fault_name fault)
          (Cover.engine_name base);
      find;
    }

(* ---------- injectable I/O faults ---------- *)

(* A [Journal.io] proxy that misbehaves the way real filesystems do, so the
   journal's recovery machinery (short-write loops, EINTR retries, typed
   [ENOSPC] surfacing, checkpoint degradation) is exercised
   deterministically. *)
module Io = struct
  module Journal = Fpva_util.Journal

  type fault =
    | Short_write of int
        (* every write call transfers at most [n] bytes *)
    | Eintr_every of int
        (* every [k]-th write call raises [EINTR] before transferring
           anything *)
    | Enospc_after of int
        (* once [n] bytes have been transferred, every further write
           raises [ENOSPC]: a volume filling up mid-campaign *)
    | Fsync_failure  (* every sync raises [EIO] *)

  (* Faults compose: [[Short_write 3; Enospc_after 100]] dribbles 3 bytes
     at a time until the 100-byte cliff. *)
  let wrap ?monitor:m faults (io : Journal.io) =
    let m = match m with Some m -> m | None -> monitor () in
    let calls = ref 0 in
    let total = ref 0 in
    let write b off len =
      incr calls;
      m.calls <- m.calls + 1;
      List.iter
        (function
          (* [max 2]: a wrapper failing every single call would spin the
             journal's retry loop forever — EINTR is by definition a
             fault that goes away on retry. *)
          | Eintr_every k when !calls mod max 2 k = 0 ->
            m.injected <- m.injected + 1;
            raise (Unix.Unix_error (Unix.EINTR, "write", "chaos"))
          | Enospc_after cap when !total >= cap ->
            m.injected <- m.injected + 1;
            raise (Unix.Unix_error (Unix.ENOSPC, "write", "chaos"))
          | _ -> ())
        faults;
      let capped =
        List.fold_left
          (fun l -> function Short_write c when c >= 1 -> min c l | _ -> l)
          len faults
      in
      if capped < len then m.injected <- m.injected + 1;
      let n = io.Journal.write b off capped in
      total := !total + n;
      n
    in
    let sync () =
      if List.mem Fsync_failure faults then begin
        m.injected <- m.injected + 1;
        raise (Unix.Unix_error (Unix.EIO, "fsync", "chaos"))
      end
      else io.Journal.sync ()
    in
    { Journal.write; sync; close = io.Journal.close }
end
