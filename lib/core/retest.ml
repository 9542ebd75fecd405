type policy = { max_reads : int }

let policy max_reads =
  if max_reads < 1 then invalid_arg "Retest.policy: max_reads must be >= 1";
  { max_reads }

type verdict = {
  failed : bool;
  reads : int;
  fail_votes : int;
  pass_votes : int;
}

let unanimous v = v.fail_votes = 0 || v.pass_votes = 0

let apply policy ~read =
  let k = policy.max_reads in
  let fails = ref 0 and passes = ref 0 and n = ref 0 in
  let take () =
    let r = read !n in
    incr n;
    if r then incr fails else incr passes
  in
  take ();
  if k > 1 then begin
    (* Confirmation read; escalation beyond two reads happens only when the
       first two disagree, and stops as soon as one side holds a strict
       majority of [k] (the remaining reads cannot change the verdict). *)
    take ();
    if !fails = 1 && !passes = 1 then begin
      let majority = (k / 2) + 1 in
      while !n < k && !fails < majority && !passes < majority do
        take ()
      done
    end
  end;
  (* A tie (even [k], exhausted reads) resolves to failed: flagging a
     suspect chip for bench inspection is the conservative direction. *)
  { failed = !fails >= !passes; reads = !n; fail_votes = !fails;
    pass_votes = !passes }

type 'a outcome = {
  item : 'a;
  verdict : verdict;
}

type 'a session = {
  outcomes : 'a outcome list;
  total_reads : int;
  escalated : int;
  flagged : int;
}

let run policy ~read items =
  let outcomes =
    List.map
      (fun item ->
        { item; verdict = apply policy ~read:(fun attempt -> read item attempt) })
      items
  in
  let base_reads = min 2 policy.max_reads in
  List.fold_left
    (fun acc o ->
      { acc with
        total_reads = acc.total_reads + o.verdict.reads;
        escalated =
          (acc.escalated + if o.verdict.reads > base_reads then 1 else 0);
        flagged = (acc.flagged + if o.verdict.failed then 1 else 0) })
    { outcomes; total_reads = 0; escalated = 0; flagged = 0 }
    outcomes

let mean_reads s =
  match s.outcomes with
  | [] -> 0.0
  | _ :: _ ->
    float_of_int s.total_reads /. float_of_int (List.length s.outcomes)
