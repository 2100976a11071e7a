(** Delta operations absorbed by the replanning engine.

    A delta is one atomic change to the world the controller plans
    over: a household appearing or disappearing (Fig. 1's gateway
    population churns), a stream's transmission cost changing (codec
    or path change), or the head-end's budgets being resized.

    Deltas serialize one per line, so a churn workload is a plain text
    log that can be recorded, replayed ([bin/mmd_engine.ml]) and
    diffed:

    {v
    join <W> <K_1..K_mc> | <s> <w> <k_1..k_mc> | ...
    leave <slot>
    cost <stream> <c_1> ... <c_m>
    budget <B_1> ... <B_m>
    v}

    [#] starts a comment and blank lines are ignored; numbers may be
    ["inf"]. *)

type user_spec = {
  utility_cap : float;  (** [W_u]; [infinity] when unbounded *)
  capacity : float array;  (** length [mc] *)
  interests : (int * float * float array) list;
      (** (stream, utility, per-measure loads); loads have length [mc] *)
}
(** Everything needed to instantiate a joining user. *)

type t =
  | User_join of user_spec
  | User_leave of int  (** slot id, as returned when the user joined *)
  | Stream_cost_change of { stream : int; costs : float array }
  | Budget_resize of float array

val kind : t -> string
(** ["join"], ["leave"], ["cost"] or ["budget"]. *)

val to_string : t -> string
(** One line, no trailing newline. [of_string (to_string d) = d] up to
    float printing precision (printing is exact, [%.17g]). *)

val of_string_result : string -> (t, string) result
(** Parse a single delta line; the error names the offending token. *)

val of_string : string -> t
(** [of_string_result] for the CLI boundary.
    @raise Failure on malformed input. *)

val log_to_string : t list -> string

val log_of_string_result : string -> (t list, string) result
(** Parse a whole log; the error carries the 1-based line number. *)

val log_of_string : string -> t list
(** [log_of_string_result] for the CLI boundary.
    @raise Failure with a line-numbered message. *)

val write_log : string -> t list -> unit

val pp : Format.formatter -> t -> unit
