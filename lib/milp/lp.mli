(** Mixed-integer linear-program model builder.

    A model is a set of bounded variables, linear constraints and a linear
    objective.  The paper's test-generation models (eqs. (1)–(9)) are built
    with this module and solved either by the LP relaxation ({!Simplex}) or
    exactly ({!Branch_bound}).

    Constraints are stored as compressed sparse rows (CSR): one array of
    row offsets, and one array each of variable indices and coefficients,
    the offsets a cumulative sum of the row lengths.  The solvers read that
    form through {!rows}.

    Variables are identified by opaque handles; a handle is only valid for
    the model that created it. *)

type t

type var

type sense = Minimize | Maximize

type kind =
  | Continuous
  | Integer
  | Binary  (** integer with implicit bounds [0, 1] *)

type relation = Le | Ge | Eq

type term = float * var
(** A coefficient–variable product. *)

val create : sense -> t
(** [create sense] is an empty model optimising in direction [sense]. *)

val sense : t -> sense

val add_var : t -> ?lower:float -> ?upper:float -> kind -> var
(** [add_var t kind] declares a fresh variable.  Defaults: [lower] is [0.]
    ([0.] for [Binary]), [upper] is [infinity] ([1.] for [Binary]).
    Use [neg_infinity] for a free lower bound.
    @raise Invalid_argument if [lower > upper]. *)

val add_constr : t -> term list -> relation -> float -> unit
(** [add_constr t terms rel rhs] adds the constraint [terms rel rhs].
    Repeated variables in [terms] are summed into their first occurrence,
    and a variable whose coefficients sum to [0.] is dropped. *)

val set_objective : t -> ?constant:float -> term list -> unit
(** Replaces the objective function.  The default objective is [0]. *)

val var_index : var -> int
(** Dense 0-based index of a variable (also its slot in solution arrays). *)

val num_vars : t -> int

val num_constrs : t -> int

(** {2 Introspection (used by the solvers and tests)} *)

type rows = private {
  off : int array;
      (** row [i]'s terms are at [off.(i)] .. [off.(i + 1) - 1];
          [num_constrs + 1] entries, [off.(0) = 0] *)
  col : int array;  (** the variable index of each term *)
  coef : float array;  (** its coefficient, never [0.] *)
  rel : relation array;  (** by row *)
  rhs : float array;  (** by row *)
}
(** The constraints, frozen: each row's terms in the order of
    {!constr_terms}. *)

val rows : t -> rows
(** [rows t] is built once and returned again until the next
    {!add_constr}, which leaves earlier values intact.  The arrays are
    shared: read them, never write them. *)

val bounds : t -> float array * float array
(** Fresh copies of the lower and upper bounds, by {!var_index}. *)

val var_of_index : t -> int -> var
(** @raise Invalid_argument if out of range. *)

val var_lower : t -> var -> float

val var_upper : t -> var -> float

val var_kind : t -> var -> kind

val is_integral_kind : kind -> bool

val objective_terms : t -> term list

val constr_terms : t -> int -> term list
(** Terms of the [i]th constraint, with duplicate variables merged. *)

val check_feasible : ?eps:float -> t -> float array -> bool
(** [check_feasible t x] tests bounds, constraints and integrality of [x]
    within tolerance [eps] (default [1e-6]). *)

val objective_value : t -> float array -> float
(** Objective value at a point, including the constant term. *)
