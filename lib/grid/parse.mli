(** Parsing FPVA layouts from ASCII art — the inverse of {!Render}.

    The accepted format is exactly what {!Render.plain} produces:

    {v
    #####M#####
    # | | | | #
    #-+-+-+ +-#
    # | | X | #
    S-+-+-+-+-#
    # | # | | #
    ###########
    v}

    - the canvas must be [(2*rows+1) x (2*cols+1)] characters;
    - cells (odd row, odd column): [' '] fluid, ['#'] obstacle;
    - vertical separators (odd row, even column): ['|'] valve, [' '] open
      channel, ['X'] wall;
    - horizontal separators (even row, odd column): ['-'] valve, [' ']
      open channel, ['X'] wall;
    - outline characters: ['#'] sealed, ['S'] pressure source, ['M']
      pressure meter, placed against the boundary cell they serve, which
      must be fluid;
    - interior corners (even/even) are ignored (conventionally ['+']).

    Round-trip guarantee: [parse (Render.plain t)] reconstructs [t] up to
    edge states adjacent to obstacles (forced to [Wall] either way). *)

val parse : string -> (Fpva.t, string) result
(** Parse a layout.  Errors carry a line/column description. *)

val parse_exn : string -> Fpva.t
(** @raise Invalid_argument on malformed input. *)
