(** A reusable domain pool with deterministic parallel combinators.

    The pool fans independent work items across OCaml domains while
    guaranteeing that every result is {e bit-identical} to the
    sequential reference, whatever the domain count or completion
    order:

    - {!parallel_map} and {!init} are order-preserving: slot [i] of
      the result always holds [f x_i].
    - {!for_reduce} computes element values in parallel but folds
      them {e sequentially in index order}, so non-associative
      accumulations (float sums) associate exactly like the plain
      [for] loop they replace.
    - {!reduce_chunks} and {!argmax_float} cut the index space into a
      chunk grid that depends only on the caller-supplied chunk size,
      never on the domain count, and combine chunk results in
      ascending chunk order; ties in {!argmax_float} break to the
      lowest index regardless of which domain finished first.

    The worker count is resolved, in priority order, from
    {!set_num_domains}, the [VDMC_DOMAINS] environment variable, and
    [Domain.recommended_domain_count () - 1]; a count of [1] disables
    the pool entirely and every combinator runs inline, making the
    sequential fallback exact by construction. Nested parallel calls
    (a task that itself invokes a combinator) also run inline, so
    solvers may be freely composed.

    Exceptions raised by tasks are caught, the remaining tasks run to
    completion, and the exception of the lowest-indexed failing task
    is re-raised in the calling domain; the pool survives and is
    reusable afterwards. *)

val num_domains : unit -> int
(** The active domain count (>= 1). *)

val set_num_domains : int option -> unit
(** [set_num_domains (Some n)] forces the count to [max 1 n] (takes
    precedence over [VDMC_DOMAINS]); [None] restores the default
    resolution. The pool is resized lazily on the next parallel
    call. *)

val with_num_domains : int -> (unit -> 'a) -> 'a
(** Run a thunk under a forced domain count, restoring the previous
    setting afterwards (exception-safe). *)

val set_task_wrapper : (unit -> (unit -> unit) -> unit -> unit) option -> unit
(** Install (or clear) the per-region task wrapper. The outer function
    is called once per submitted region, on the submitting domain —
    letting it capture submission-time context such as the current
    tracing span; the function it returns is applied to every task of
    that region and runs on the executing domain. Installed by the
    observability layer to propagate span parents into pool tasks and
    to meter task queueing; identity when unset. *)

val shutdown : unit -> unit
(** Join all pool workers. The pool restarts lazily on the next
    parallel call; mainly useful in tests and at exit (installed
    automatically). *)

val init : ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [init n f] is [Array.init n f] with the calls to [f] distributed
    over the pool. [chunk] is the number of consecutive indices per
    task (default 64); [n <= chunk] runs inline. *)

val parallel_map : ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel [Array.map]. [chunk] defaults to [1]
    (each element is its own task — right for coarse work items like
    whole solver runs). *)

val float_init : ?chunk:int -> int -> (int -> float) -> float array
(** {!init} specialised to unboxed float results. *)

val iter_chunks : ?chunk:int -> int -> (int -> int -> unit) -> unit
(** [iter_chunks n body] calls [body lo hi] once for each
    [chunk]-sized slice [[lo, hi)] of [[0, n)], the slices spread over
    the pool ([n <= chunk] runs inline as [body 0 n]). For in-place
    fills of a caller-owned array: each index belongs to exactly one
    slice, so per-index results cannot depend on the domain count. *)

val for_reduce :
  ?chunk:int ->
  init:'acc ->
  f:(int -> 'b) ->
  combine:('acc -> 'b -> 'acc) ->
  int ->
  'acc
(** [for_reduce ~init ~f ~combine n] is
    [combine (... (combine init (f 0)) ...) (f (n-1))]: the [f i] run
    in parallel, the fold is sequential in index order, so the result
    is bit-identical to the sequential loop even when [combine] is
    not associative. *)

val reduce_chunks :
  ?chunk:int ->
  local:(int -> int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  int ->
  'a option
(** [reduce_chunks ~local ~combine n] evaluates
    [local lo hi] over the fixed grid
    [[0,chunk), [chunk,2*chunk), ...] in parallel and folds the chunk
    results with [combine] in ascending chunk order. The grid depends
    only on [chunk] (default 64) and [n], never on the domain count,
    so any [combine] — associative or not — yields the same result at
    every domain count. [None] when [n <= 0]. *)

val argmax_float : ?chunk:int -> n:int -> (int -> float) -> (int * float) option
(** Lowest-index maximiser of [score i] over [0 .. n-1], computed
    chunk-locally and combined deterministically: the result is
    exactly that of the sequential scan keeping the first strict
    maximum. [None] when [n <= 0]. *)
