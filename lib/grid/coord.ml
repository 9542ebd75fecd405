type cell = { row : int; col : int }

type dir = North | South | East | West

type edge = E of cell | S of cell

let cell row col = { row; col }

let move c = function
  | North -> { c with row = c.row - 1 }
  | South -> { c with row = c.row + 1 }
  | East -> { c with col = c.col + 1 }
  | West -> { c with col = c.col - 1 }

let opposite = function
  | North -> South
  | South -> North
  | East -> West
  | West -> East

let all_dirs = [ North; South; East; West ]

let edge_between a b =
  if a.row = b.row && b.col = a.col + 1 then E a
  else if a.row = b.row && a.col = b.col + 1 then E b
  else if a.col = b.col && b.row = a.row + 1 then S a
  else if a.col = b.col && a.row = b.row + 1 then S b
  else invalid_arg "Coord.edge_between: cells not adjacent"

let edge_endpoints = function
  | E c -> (c, { c with col = c.col + 1 })
  | S c -> (c, { c with row = c.row + 1 })

let edge_towards c = function
  | East -> E c
  | West -> E { c with col = c.col - 1 }
  | South -> S c
  | North -> S { c with row = c.row - 1 }

let compare_cell a b =
  match compare a.row b.row with 0 -> compare a.col b.col | n -> n

let pp_cell ppf c = Format.fprintf ppf "(%d,%d)" c.row c.col

let pp_edge ppf = function
  | E c -> Format.fprintf ppf "E%a" pp_cell c
  | S c -> Format.fprintf ppf "S%a" pp_cell c

let cell_to_string c = Format.asprintf "%a" pp_cell c
