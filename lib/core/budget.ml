module Timer = Fpva_util.Timer
module Bb = Fpva_milp.Branch_bound

type t = {
  deadline : float;  (* absolute; infinity = unlimited *)
  allotted : float;  (* seconds granted at creation/share time *)
  nodes : int option;  (* per-solve node cap *)
}

let unlimited = { deadline = infinity; allotted = infinity; nodes = None }

let create ?seconds ?nodes () =
  match (seconds, nodes) with
  | None, None -> unlimited
  | _ ->
    let now = Timer.now () in
    let allotted = Option.value seconds ~default:infinity in
    let deadline = if allotted = infinity then infinity else now +. allotted in
    { deadline; allotted; nodes }

let of_seconds s = create ~seconds:s ()

let is_unlimited t = t.deadline = infinity && t.nodes = None

let remaining t =
  if t.deadline = infinity then infinity
  else max 0.0 (t.deadline -. Timer.now ())

let allotted t = t.allotted

let exhausted t = remaining t <= 0.0

let share t f =
  if t.deadline = infinity then t
  else begin
    let now = Timer.now () in
    let rem = max 0.0 (t.deadline -. now) in
    let slice = rem *. (max 0.0 (min 1.0 f)) in
    { deadline = min t.deadline (now +. slice);
      allotted = slice;
      nodes = t.nodes }
  end

let clamp_bb t (o : Bb.options) =
  let time_limit = min o.Bb.time_limit (remaining t) in
  let max_nodes =
    match t.nodes with
    | None -> o.Bb.max_nodes
    | Some n -> min o.Bb.max_nodes n
  in
  if time_limit = o.Bb.time_limit && max_nodes = o.Bb.max_nodes then o
  else { o with Bb.time_limit; max_nodes }
