(** Dual-certificate emitters over the exact/LP layer.

    The emitters here wrap {!Lp_relax} / {!Simplex} (dense, tight) and
    [Cert.Sparse] (tableau-free, any scale). Both produce a
    [Cert.Certificate.t] whose bound has been sealed by the
    {e independent} checker ([Cert.Checker] — a library with no
    dependency on this one or on [Simplex], enforced by the dune
    library graph), so trust flows from re-verification, never from
    the solver: call {!check} (or [Cert.Checker.check] directly) and
    believe the verdict, not the emitter. *)

type method_ = Dense | Sparse

val string_of_method : method_ -> string

val emit_dense :
  ?max_iters:int -> Mmd.Instance.t -> (Cert.Certificate.t, string) result
(** Solve the LP relaxation and lift its raw row duals (budget,
    capacity and utility-cap rows) into a certificate; the implied
    coupling/box duals are canonical-completed by the checker. The
    bound equals the LP optimum up to dual repair, i.e. it is the
    tightest certificate this layer can emit. [Error] when the simplex
    gives up — callers degrade to "no certificate".
    @raise Invalid_argument on NaN inputs (see {!Lp_relax.validate}). *)

val emit_sparse :
  ?iters:int -> ?target:float -> Mmd.Instance.t -> Cert.Certificate.t
(** The Lagrangian path ([Cert.Sparse.emit]) on the instance; never
    fails, bound loosens gracefully with fewer iterations. *)

val emit :
  ?dense_limit:int ->
  ?sparse_iters:int ->
  ?target:float ->
  Mmd.Instance.t ->
  (Cert.Certificate.t * method_, string) result
(** Auto dispatch: dense when the tableau would stay under
    [dense_limit] cells (default 2e6), sparse otherwise or when the
    dense path fails. *)

val check :
  ?tol:float -> Mmd.Instance.t -> Cert.Certificate.t -> Cert.Checker.verdict
(** Convenience: [Cert.Checker.check] against the instance's problem
    view. *)
