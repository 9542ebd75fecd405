(** Benchmark FPVA layouts.

    The paper evaluates five arrays (Table I) "with long channels for
    transportation and obstacle areas"; the exact layouts were not
    published.  Two reconstructions are provided:

    - {!paper_array}: for each 5x5 subblock one valve site is replaced by an
      open channel segment (a distributed fluidic sea).  This reproduces the
      paper's valve counts {e exactly}: 39, 176, 411, 744 and 1704 valves
      for the 5x5 … 30x30 arrays (full internal count [2n(n-1)] minus one
      site per subblock).
    - {!figure9}: a 20x20 array with three long transport channels and two
      2x2 obstacle blocks, in the spirit of the paper's Fig. 9.

    All layouts carry one pressure source on the west side and one pressure
    meter on the east side, both at the middle row, unless stated
    otherwise. *)

val full : rows:int -> cols:int -> Fpva.t
(** Complete array (every internal edge a valve) with the default ports. *)

val paper_array : int -> Fpva.t
(** [paper_array n] for [n] in {5, 10, 15, 20, 30}; see above.  Accepts any
    [n >= 2] divisible by 5 is {e not} required — subblocks are anchored at
    multiples of 5 and partial subblocks get no open site. *)

val paper_suite : (string * Fpva.t) list
(** The five Table-I arrays, labelled ["5x5"] … ["30x30"]. *)

val figure9 : unit -> Fpva.t

val figure8 : unit -> Fpva.t
(** The Fig. 8 comparison array: a full 10x10 grid.  Ports are placed at
    the corners (source at west row 0, sinks at west row 9 and north
    column 9) so that the two-boustrophedon cover — the paper's two-path
    direct solution — is admissible. *)

val carve_row_channel : Fpva.t -> row:int -> from_col:int -> to_col:int -> unit
(** Replace the east-west valve sites along a row segment by open channel
    (cells [from_col..to_col] become a free corridor). *)

val add_obstacle_block :
  Fpva.t -> row:int -> col:int -> height:int -> width:int -> unit
(** Mark a rectangular block of cells as obstacles. *)

val with_default_ports : Fpva.t -> Fpva.t
(** Adds the standard west source / east sink at the middle row (mutates and
    returns its argument, for pipelining). *)
