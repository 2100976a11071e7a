module F = Prelude.Float_ops
module SI = Prelude.Sorted_ints

type mode = Lazy | Eager

(* A float stored flat: a record of floats only is unboxed, so writing
   its field allocates nothing, where a mutable float field of [t]
   would box a fresh float on every write. *)
type cell = { mutable value : float }

type t = {
  view : View.t;
  admitted : bool array;  (* stream *)
  pinned : bool array;  (* stream *)
  used : float array;  (* m *)
  bound : float array;
      (* stream -> bound on the marginal (lazy) or the marginal (eager);
         scratch of one extend *)
  static : float array;  (* stream -> static bound, as [reset] seeds it *)
  mutable static_version : int;
      (* the [View.version] [static] was computed at; -1 for never *)
  mutable live : int array;
      (* per stream, from [live_off]: positions into its incidence
         arrays that still add to its marginal; scratch of one extend,
         see [eval_marginal] *)
  live_off : int array;  (* stream; placed at the start of every extend *)
  live_len : int array;  (* stream *)
  live_stamp : int array;  (* stream -> the extend its list belongs to *)
  mutable extends : int;  (* extends started: the running one's id *)
  cost_norm : float array;  (* stream; refilled for the candidates of every extend *)
  cand : int array;
      (* stream ids: the lazy greedy's heap, or the eager scan list *)
  mutable cand_len : int;
  violated : bool array;  (* m; scratch of [enforce_budgets] *)
  loss : float array;  (* stream; eviction-loss cache of [enforce_budgets] *)
  loss_ok : bool array;  (* stream; whether [loss] is current *)
  mutable delivered : SI.t array;
      (* per slot: the streams delivered to it, ascending. Sparse — a
         slot only ever receives streams it is interested in, so the
         set stays a handful of entries where a dense slot x stream
         matrix would cost num_streams bits per slot (10 GB at a
         million slots and 10k streams). Only admitted streams: the
         kernel relies on it to skip the membership test for a stream
         that is not transmitted. *)
  mutable delivered_util : float array;  (* slot; uncapped sum *)
  mutable capped : float array;  (* slot; min (W_u, delivered_util) *)
  mutable cap_used : float array;  (* flat slot-major: slot*mc + j *)
  mutable slots : int;  (* slot-indexed arrays are sized for this many *)
  total : cell;
  mutable evals : int;
  mutable visits : int;  (* incidence entries walked by evaluations *)
  mutable eager_equiv : int;
}

let create view =
  let ns = View.num_streams view and slots = View.num_slots view in
  { view;
    admitted = Array.make ns false;
    pinned = Array.make ns false;
    used = Array.make (View.m view) 0.;
    bound = Array.make ns 0.;
    static = Array.make ns 0.;
    static_version = -1;
    live = [||];
    live_off = Array.make ns 0;
    live_len = Array.make ns 0;
    live_stamp = Array.make ns 0;
    extends = 0;
    cost_norm = Array.make ns 0.;
    cand = Array.make ns 0;
    cand_len = 0;
    violated = Array.make (View.m view) false;
    loss = Array.make ns 0.;
    loss_ok = Array.make ns false;
    delivered = Array.init slots (fun _ -> SI.create ());
    delivered_util = Array.make slots 0.;
    capped = Array.make slots 0.;
    cap_used = Array.make (slots * View.mc view) 0.;
    slots;
    total = { value = 0. };
    evals = 0;
    visits = 0;
    eager_equiv = 0 }

let ensure_slots t =
  let need = View.num_slots t.view in
  if need > t.slots then begin
    let mc = View.mc t.view in
    let cap = max need (2 * t.slots) in
    let grow make old =
      Array.init cap (fun i -> if i < t.slots then old.(i) else make ())
    in
    t.delivered <- grow (fun () -> SI.create ()) t.delivered;
    t.delivered_util <- grow (fun () -> 0.) t.delivered_util;
    t.capped <- grow (fun () -> 0.) t.capped;
    let cap_used' = Array.make (cap * mc) 0. in
    Array.blit t.cap_used 0 cap_used' 0 (t.slots * mc);
    t.cap_used <- cap_used';
    t.slots <- cap
  end

let set_pinned t streams =
  Array.fill t.pinned 0 (Array.length t.pinned) false;
  List.iter
    (fun s ->
      if s < 0 || s >= Array.length t.pinned then
        invalid_arg "Planner.set_pinned: stream out of range";
      t.pinned.(s) <- true)
    streams

let pinned t =
  let acc = ref [] in
  Array.iteri (fun s p -> if p then acc := s :: !acc) t.pinned;
  List.rev !acc

let is_admitted t s = t.admitted.(s)

let admitted t =
  let acc = ref [] in
  Array.iteri (fun s a -> if a then acc := s :: !acc) t.admitted;
  List.rev !acc

let delivered t slot = if slot < t.slots then SI.to_list t.delivered.(slot) else []

let assignment t =
  Mmd.Assignment.of_sets
    (Array.init (View.num_slots t.view) (fun u -> delivered t u))

let utility t = t.total.value
let server_used t i = t.used.(i)
let evals t = t.evals
let eager_equiv t = t.eager_equiv

let add_evals t ~evals ~eager_equiv =
  t.evals <- t.evals + evals;
  t.eager_equiv <- t.eager_equiv + eager_equiv

(* The kernel.

   Everything below runs once per marginal evaluation, delivery or
   eviction pick, and allocates nothing there. The library is built
   without cross-module inlining, so a float passed to or returned
   from a function of another module (or a non-inlined one of this
   module) is boxed. Hence: the tolerance test is a local inlined copy
   of [Float_ops.leq]; view data is read from the raw arrays, fetched
   once per call, never through the per-element float accessors;
   float-returning helpers are [@inline]; and the helpers that are not
   take arrays and indices rather than floats. Plans are pinned bit for
   bit (the plan-digest test), so every float operation and its order
   is part of the contract. No per-entry step calls into C or runs the
   write barrier. *)

(* [Float.min]/[Float.max] for every input, NaN and signed zeros
   included, without their two sign-bit C calls in the ordered cases. *)
let[@inline] fmin a b = if a < b then a else if b < a then b else Float.min a b
let[@inline] fmax a b = if a > b then a else if b > a then b else Float.max a b

(* [Float_ops.leq] at [Float_ops.default_eps]: the same operations in
   the same order, so every capacity and budget verdict is unchanged. *)
let eps = F.default_eps

let[@inline] leq a b =
  a <= b
  || Float.is_finite a && Float.is_finite b
     && a <= b +. (eps *. fmax 1. (fmax (Float.abs a) (Float.abs b)))

(* Whether a load row [ld.(li) ..] fits on top of the used capacity
   row [cu.(base) ..] under the capacity row [cap.(base) ..]. Measure
   0 is tested before the loop over the rest, so a one-measure world
   never enters it; the tests and their order are those of one loop
   from 0. *)
let[@inline] fits_row ~cu ~cap ~ld ~base ~li mc =
  if mc = 0 then true
  else if
    not
      (leq
         (Array.unsafe_get cu base +. Array.unsafe_get ld li)
         (Array.unsafe_get cap base))
  then false
  else begin
    let ok = ref true in
    let j = ref 1 in
    while !ok && !j < mc do
      if
        not
          (leq
             (Array.unsafe_get cu (base + !j) +. Array.unsafe_get ld (li + !j))
             (Array.unsafe_get cap (base + !j)))
      then ok := false;
      incr j
    done;
    !ok
  end

(* Residual capped utility of slot u: how much more objective the user
   can still contribute. *)
let[@inline] resid ~ucap ~du u =
  let uc = Array.unsafe_get ucap u in
  if uc = infinity then infinity
  else fmax 0. (uc -. Array.unsafe_get du u)

let fits_cap t u s =
  let v = t.view in
  let mc = View.mc v in
  let base = u * mc in
  let ok = ref true in
  for j = 0 to mc - 1 do
    if not (leq (t.cap_used.(base + j) +. View.load v u s j) (View.capacity v u j))
    then ok := false
  done;
  !ok

let fits_budget t s =
  let v = t.view in
  let cost = View.cost_row v s and budget = View.budgets v in
  let ok = ref true in
  for i = 0 to View.m v - 1 do
    if not (leq (t.used.(i) +. cost.(i)) budget.(i)) then ok := false
  done;
  !ok

(* Normalized server cost: the stream's largest fractional bite out of
   any finite budget. In [0, 1] by the view's fit invariant. The view
   does not change during an extend, so it is computed once there. *)
let set_cost_norm t s =
  let v = t.view in
  let cost = View.cost_row v s and budget = View.budgets v in
  let worst = ref 0. in
  for i = 0 to View.m v - 1 do
    let b = budget.(i) in
    if b > 0. && b < infinity then worst := fmax !worst (cost.(i) /. b)
  done;
  t.cost_norm.(s) <- !worst

(* Marginal capped utility of admitting s, which is not admitted, at
   the current plan state.

   This is the engine's innermost loop: a linear walk over the
   stream's interest incidence (contiguous ids/w/loads arrays from the
   view) against the planner's flat cap_used row, in ascending slot
   order with min-with-residual accumulation. A slot holds only
   admitted streams, so no slot holds s and there is no per-slot
   membership test.

   Only an entry whose capacity fits and whose slot has residual
   utility adds to the sum, and one that has failed once fails at
   every later evaluation of the same extend:
   - within one extend the view is fixed, and deliveries only add
     nonnegative loads to [cap_used] and nonnegative utilities to
     [delivered_util];
   - float addition is monotone, and [leq] is monotone in its first
     argument for nonnegative inputs, so a capacity test that failed
     fails again;
   - [resid] never increases, so a residual that reached 0 stays 0.
   So the first evaluation of s in an extend walks every entry and
   records in its live list the positions that passed both tests; later
   ones walk only those, and compact the list as more entries fail.
   The sum adds the same terms in the same ascending order, so every
   marginal is bit-identical to a walk of the whole incidence. The
   list is stamped with its extend, and only the extend's own
   evaluations and admissions read it: this runs only inside one. *)
let[@inline] eval_marginal t s =
  t.evals <- t.evals + 1;
  let v = t.view in
  let mc = View.mc v in
  let ids = View.inc_ids v s in
  let w = View.inc_w v s in
  let ld = View.inc_loads v s in
  let cap = View.capacity_flat v in
  let ucap = View.utility_caps v in
  let cu = t.cap_used and du = t.delivered_util in
  let first = t.live_stamp.(s) <> t.extends in
  if first then t.live_stamp.(s) <- t.extends;
  let live = t.live and off = t.live_off.(s) in
  let n = if first then View.inc_len v s else t.live_len.(s) in
  t.visits <- t.visits + n;
  let acc = ref 0. and kept = ref 0 in
  for q = 0 to n - 1 do
    let i = if first then q else Array.unsafe_get live (off + q) in
    let u = Array.unsafe_get ids i in
    if fits_row ~cu ~cap ~ld ~base:(u * mc) ~li:(i * mc) mc then begin
      let r = resid ~ucap ~du u in
      if r > 0. then begin
        acc := !acc +. fmin (Array.unsafe_get w i) r;
        (* [kept <= q]: the write never overtakes the read. *)
        Array.unsafe_set live (off + !kept) i;
        incr kept
      end
    end
  done;
  t.live_len.(s) <- !kept;
  !acc

(* Fold a new delivered utility into slot u's capped share of the
   objective. *)
let[@inline] recap t ~ucap u =
  let capped' = fmin (Array.unsafe_get ucap u) t.delivered_util.(u) in
  t.total.value <- t.total.value +. (capped' -. t.capped.(u));
  t.capped.(u) <- capped'

(* Deliver s to slot u unconditionally (bookkeeping only): utility
   [w.(i)], load row [ld.(i*mc) .. ld.(i*mc+mc-1)] — the stream's
   incidence arrays at u's position. *)
let[@inline] deliver_at t ~mc ~ucap u s ~w ~ld i =
  ignore (SI.add t.delivered.(u) s);
  let base = u * mc and li = i * mc in
  for j = 0 to mc - 1 do
    t.cap_used.(base + j) <- t.cap_used.(base + j) +. ld.(li + j)
  done;
  t.delivered_util.(u) <- t.delivered_util.(u) +. w.(i);
  recap t ~ucap u

(* Accessor-path variant for cold call sites (join catch-up, forced
   restores) where the incidence index is not at hand. *)
let deliver_raw t u s =
  let v = t.view in
  let mc = View.mc v in
  ignore (SI.add t.delivered.(u) s);
  let base = u * mc in
  for j = 0 to mc - 1 do
    t.cap_used.(base + j) <- t.cap_used.(base + j) +. View.load v u s j
  done;
  t.delivered_util.(u) <- t.delivered_util.(u) +. View.utility v u s;
  recap t ~ucap:(View.utility_caps v) u

(* Deliver s at incidence position i if the slot's capacity and
   residual utility allow. *)
let[@inline] deliver_if_fits t ~mc ~cap ~ucap s ~ids ~w ~ld i =
  let u = ids.(i) in
  if
    fits_row ~cu:t.cap_used ~cap ~ld ~base:(u * mc) ~li:(i * mc) mc
    && resid ~ucap ~du:t.delivered_util u > 0.
  then deliver_at t ~mc ~ucap u s ~w ~ld i

(* Admit s, which is not admitted and fits the residual budgets, and
   deliver it wherever capacity and residual utility allow. No slot
   holds s yet, so there is no membership test. The extend loops
   admit s right after evaluating it at the current plan state, so
   only the positions on its live list can pass there ([~live], see
   [eval_marginal]). *)
let admit_fitting ~live t s =
  let v = t.view in
  t.admitted.(s) <- true;
  let cost = View.cost_row v s in
  for i = 0 to View.m v - 1 do
    t.used.(i) <- t.used.(i) +. cost.(i)
  done;
  let mc = View.mc v in
  let ids = View.inc_ids v s in
  let w = View.inc_w v s in
  let ld = View.inc_loads v s in
  let cap = View.capacity_flat v in
  let ucap = View.utility_caps v in
  if live then begin
    let off = t.live_off.(s) in
    for q = 0 to t.live_len.(s) - 1 do
      deliver_if_fits t ~mc ~cap ~ucap s ~ids ~w ~ld t.live.(off + q)
    done
  end
  else
    for i = 0 to View.inc_len v s - 1 do
      deliver_if_fits t ~mc ~cap ~ucap s ~ids ~w ~ld i
    done

let admit t s =
  if t.admitted.(s) || not (fits_budget t s) then false
  else begin
    admit_fitting ~live:false t s;
    true
  end

(* Static upper bound on any marginal of s: every interested user
   contributes at most min(w, W_u). *)
let set_static_bound t s =
  let v = t.view in
  let n = View.inc_len v s in
  let ids = View.inc_ids v s in
  let w = View.inc_w v s in
  let ucap = View.utility_caps v in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. fmin (Array.unsafe_get w i) ucap.(Array.unsafe_get ids i)
  done;
  t.static.(s) <- !acc

(* The static bounds are pure functions of the view, so they are
   recomputed only when the view changed since they last were: the
   controller's restart from [A_max] resets twice more over the same
   view. The per-stream sums are independent read-only walks, so they
   fan out across the pool; each is computed whole by one worker,
   keeping the floats bit-identical to the sequential loop. *)
let refresh_static_bounds t =
  let version = View.version t.view in
  if t.static_version <> version then begin
    Prelude.Pool.iter_chunks ~chunk:64 (View.num_streams t.view) (fun lo hi ->
        for s = lo to hi - 1 do
          set_static_bound t s
        done);
    t.static_version <- version
  end

let reset t =
  ensure_slots t;
  let ns = View.num_streams t.view in
  Array.fill t.admitted 0 ns false;
  Array.fill t.used 0 (View.m t.view) 0.;
  for u = 0 to t.slots - 1 do
    SI.clear t.delivered.(u)
  done;
  Array.fill t.cap_used 0 (t.slots * View.mc t.view) 0.;
  Array.fill t.delivered_util 0 t.slots 0.;
  Array.fill t.capped 0 t.slots 0.;
  t.total.value <- 0.;
  (* Evaluations overwrite [bound], so the heap is seeded from a copy. *)
  refresh_static_bounds t;
  Array.blit t.static 0 t.bound 0 ns

(* The §2.2 [A_max]: the stream whose achievable stand-alone value —
   the capped utility [reset; admit s] would deliver — is largest.
   That is 0 for a stream that does not fit the budgets, and
   otherwise [Σ min(w, W_u)] over the interested slots whose capacity
   fits the stream's load from empty. Every incidence entry's load
   fits its slot's capacity under plain [<=] (the view gives an
   interest that exceeds it zero utility), so that sum is the static
   bound, with the same terms in the same order: bit for bit what a
   scan of the incidence would add. Ties go to the lower stream id. *)
let best_single t =
  let v = t.view in
  let ns = View.num_streams v in
  if ns = 0 then None
  else begin
    refresh_static_bounds t;
    let budget = View.budgets v in
    let best = ref 0 and best_v = ref 0. in
    for s = 0 to ns - 1 do
      let cost = View.cost_row v s in
      let fits = ref true in
      for i = 0 to View.m v - 1 do
        if cost.(i) > budget.(i) then fits := false
      done;
      let value = if !fits then t.static.(s) else 0. in
      if s = 0 || not (!best_v >= value) then begin
        best := s;
        best_v := value
      end
    done;
    Some (!best, !best_v)
  end

(* The lazy greedy's heap of candidates: stream ids in [t.cand], keyed
   by [t.bound] and [t.cost_norm], the next pick at the root. A key
   changes only for the root, just before it is sifted down. *)
let heap_push t s =
  t.cand.(t.cand_len) <- s;
  t.cand_len <- t.cand_len + 1;
  Prelude.Pick.sift_up t.bound t.cost_norm t.cand (t.cand_len - 1)

let heap_pop t =
  t.cand_len <- t.cand_len - 1;
  if t.cand_len > 0 then begin
    t.cand.(0) <- t.cand.(t.cand_len);
    Prelude.Pick.sift_down t.bound t.cost_norm t.cand t.cand_len 0
  end

(* Exported planner metrics. Heap pops and marginal evaluations are
   tallied locally inside the loops and flushed once per extend, so
   the hot path never touches an atomic. Eager, not [lazy]: the shard
   router replans inside pool tasks, and concurrent forcing of one
   [lazy] raises. *)
let m_heap_pops = Obs.Metrics.counter "planner_heap_pops_total"
let m_evals = Obs.Metrics.counter "planner_marginal_evals_total"
let m_visits = Obs.Metrics.counter "planner_incidence_visits_total"

(* Whether some candidate fits the residual budgets, testing the heap
   top first. Within one extend [used] only grows, so once none fits,
   none ever will: the plan is final, and the rest of the loop could
   only evaluate and drop candidates. Both modes stop there. A
   candidate that fits stays in the list until it is admitted, so each
   mode tests again only after an admission. *)
let any_fits t =
  let found = ref false and k = ref 0 in
  while (not !found) && !k < t.cand_len do
    found := fits_budget t t.cand.(!k);
    incr k
  done;
  !found

let extend_lazy t =
  let evals0 = t.evals and visits0 = t.visits in
  let pops = ref 0 in
  t.cand_len <- 0;
  for s = 0 to View.num_streams t.view - 1 do
    if (not t.admitted.(s)) && t.bound.(s) > 0. then begin
      set_cost_norm t s;
      heap_push t s
    end
  done;
  let fresh = ref (-1) in
  let fit_seen = ref false in
  let continue_ = ref true in
  while !continue_ && t.cand_len > 0 && (!fit_seen || any_fits t) do
    fit_seen := true;
    let s = t.cand.(0) in
    if s = !fresh then begin
      (* The top entry was evaluated at the current plan state and is
         still the best candidate: confirm it. An eager greedy would
         have re-evaluated every live candidate to reach the same
         conclusion. *)
      t.eager_equiv <- t.eager_equiv + t.cand_len;
      heap_pop t;
      incr pops;
      fresh := -1;
      if t.bound.(s) <= 0. then continue_ := false
      else if fits_budget t s then begin
        admit_fitting ~live:true t s;
        fit_seen := false
      end
      (* else: drop s for this extend, exactly as eager does. *)
    end
    else begin
      t.bound.(s) <- eval_marginal t s;
      Prelude.Pick.sift_down t.bound t.cost_norm t.cand t.cand_len 0;
      fresh := s
    end
  done;
  Obs.Metrics.inc ~n:!pops m_heap_pops;
  Obs.Metrics.inc ~n:(t.evals - evals0) m_evals;
  Obs.Metrics.inc ~n:(t.visits - visits0) m_visits

let extend_eager t =
  let evals0 = t.evals and visits0 = t.visits in
  t.cand_len <- 0;
  for s = 0 to View.num_streams t.view - 1 do
    if not t.admitted.(s) then begin
      set_cost_norm t s;
      t.cand.(t.cand_len) <- s;
      t.cand_len <- t.cand_len + 1
    end
  done;
  let fit_seen = ref false in
  let continue_ = ref true in
  while !continue_ && t.cand_len > 0 && (!fit_seen || any_fits t) do
    fit_seen := true;
    t.eager_equiv <- t.eager_equiv + t.cand_len;
    let best = ref 0 in
    for k = 0 to t.cand_len - 1 do
      let s = t.cand.(k) in
      t.bound.(s) <- eval_marginal t s;
      if Prelude.Pick.precedes_in t.bound t.cost_norm s t.cand.(!best) then
        best := k
    done;
    if t.bound.(t.cand.(!best)) <= 0. then continue_ := false
    else begin
      let s = t.cand.(!best) in
      if fits_budget t s then begin
        admit_fitting ~live:true t s;
        fit_seen := false
      end;
      Array.blit t.cand (!best + 1) t.cand !best (t.cand_len - !best - 1);
      t.cand_len <- t.cand_len - 1
    end
  done;
  Obs.Metrics.inc ~n:(t.evals - evals0) m_evals;
  Obs.Metrics.inc ~n:(t.visits - visits0) m_visits

(* Give every stream room for its whole incidence in the one flat
   [live] array: stream s's list starts at [live_off.(s)]. The array
   grows only when the view's incidence outgrows it, with a quarter
   to spare, so a population that churns around a steady size does
   not reallocate it. *)
let place_live_lists t =
  let v = t.view in
  let total = ref 0 in
  for s = 0 to View.num_streams v - 1 do
    t.live_off.(s) <- !total;
    total := !total + View.inc_len v s
  done;
  if Array.length t.live < !total then
    t.live <- Array.make (!total + (!total / 4)) 0

let extend ?(mode = Lazy) t =
  ensure_slots t;
  place_live_lists t;
  let attrs =
    [ ("mode", match mode with Lazy -> "lazy" | Eager -> "eager") ]
  in
  t.extends <- t.extends + 1;
  Obs.Span.with_ ~name:"planner.extend" ~attrs (fun () ->
      match mode with Lazy -> extend_lazy t | Eager -> extend_eager t)

let note_join t u =
  ensure_slots t;
  (* Deliver already-transmitted streams to the newcomer, most valuable
     first — they are already paid for at the server. *)
  let mine =
    List.filter (fun s -> t.admitted.(s)) (View.interests t.view u)
    |> List.sort (fun s1 s2 ->
           compare (View.utility t.view u s2) (View.utility t.view u s1))
  in
  let ucap = View.utility_caps t.view in
  List.iter
    (fun s ->
      if
        (not (SI.mem t.delivered.(u) s))
        && fits_cap t u s
        && resid ~ucap ~du:t.delivered_util u > 0.
      then deliver_raw t u s)
    mine

let note_leave t u =
  if u < t.slots then begin
    (* The view has already zeroed the slot, so drop our bookkeeping
       wholesale rather than per stream. *)
    SI.clear t.delivered.(u);
    Array.fill t.cap_used (u * View.mc t.view) (View.mc t.view) 0.;
    t.total.value <- t.total.value -. t.capped.(u);
    t.delivered_util.(u) <- 0.;
    t.capped.(u) <- 0.
  end

(* Capped utility lost if the admitted stream s were evicted. *)
let[@inline] eviction_loss t s =
  let v = t.view in
  let n = View.inc_len v s in
  let ids = View.inc_ids v s in
  let w = View.inc_w v s in
  let ucap = View.utility_caps v in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let u = ids.(i) in
    if SI.mem t.delivered.(u) s then begin
      let after = fmin ucap.(u) (t.delivered_util.(u) -. w.(i)) in
      acc := !acc +. (t.capped.(u) -. fmax 0. after)
    end
  done;
  !acc

let evict t s =
  let v = t.view in
  let mc = View.mc v in
  let n = View.inc_len v s in
  let ids = View.inc_ids v s in
  let w = View.inc_w v s in
  let ld = View.inc_loads v s in
  let ucap = View.utility_caps v in
  for i = 0 to n - 1 do
    let u = ids.(i) in
    if SI.remove t.delivered.(u) s then begin
      let base = u * mc and li = i * mc in
      for j = 0 to mc - 1 do
        t.cap_used.(base + j) <-
          fmax 0. (t.cap_used.(base + j) -. ld.(li + j))
      done;
      t.delivered_util.(u) <- fmax 0. (t.delivered_util.(u) -. w.(i));
      recap t ~ucap u
    end
  done;
  t.admitted.(s) <- false;
  let cost = View.cost_row v s in
  for i = 0 to View.m v - 1 do
    t.used.(i) <- fmax 0. (t.used.(i) -. cost.(i))
  done

let recompute_used t =
  let v = t.view in
  let m = View.m v in
  Array.fill t.used 0 m 0.;
  for s = 0 to Array.length t.admitted - 1 do
    if t.admitted.(s) then begin
      let cost = View.cost_row v s in
      for i = 0 to m - 1 do
        t.used.(i) <- t.used.(i) +. cost.(i)
      done
    end
  done

(* Mark the budgets the plan violates in [t.violated]; true if any. *)
let mark_violated t =
  let budget = View.budgets t.view in
  let any = ref false in
  for i = 0 to View.m t.view - 1 do
    let bad = not (leq t.used.(i) budget.(i)) in
    t.violated.(i) <- bad;
    if bad then any := true
  done;
  !any

(* Budget relief of evicting s: its cost summed over the violated
   measures, in ascending measure order. *)
let[@inline] relief t s =
  let cost = View.cost_row t.view s in
  let acc = ref 0. in
  for i = 0 to View.m t.view - 1 do
    if t.violated.(i) then acc := !acc +. cost.(i)
  done;
  !acc

(* [eviction_loss] is a function of the stream's recipients' capped
   utilities alone, and one eviction changes only those of its own
   recipients: [enforce_budgets] keeps every loss it computed until an
   eviction touches one of the stream's recipients. *)
let invalidate_losses t s =
  let v = t.view in
  let n = View.inc_len v s in
  let ids = View.inc_ids v s in
  for i = 0 to n - 1 do
    let held = t.delivered.(ids.(i)) in
    if SI.mem held s then
      for k = 0 to SI.length held - 1 do
        t.loss_ok.(SI.get held k) <- false
      done
  done

(* The admitted stream, pinned or not as asked, with the smallest loss
   per unit of relief (ties to the lower id); -1 if none gives relief. *)
let eviction_pick t ~pinned_pass =
  let best = ref (-1) and best_l = ref 0. and best_r = ref 0. in
  for s = 0 to Array.length t.admitted - 1 do
    if t.admitted.(s) && t.pinned.(s) = pinned_pass then begin
      let r = relief t s in
      if r > 0. then begin
        if not t.loss_ok.(s) then begin
          t.loss.(s) <- eviction_loss t s;
          t.loss_ok.(s) <- true
        end;
        let l = t.loss.(s) in
        if
          !best < 0
          || l *. !best_r < !best_l *. r
          || (l *. !best_r = !best_l *. r && s < !best)
        then begin
          best := s;
          best_l := l;
          best_r := r
        end
      end
    end
  done;
  !best

(* Evict least-valuable-per-unit-of-relief streams until every budget
   holds again. Pinned streams go last. *)
let enforce_budgets t =
  Array.fill t.loss_ok 0 (Array.length t.loss_ok) false;
  let evictions = ref 0 in
  let continue_ = ref true in
  while !continue_ && mark_violated t do
    let s =
      match eviction_pick t ~pinned_pass:false with
      | -1 -> eviction_pick t ~pinned_pass:true
      | s -> s
    in
    if s < 0 then continue_ := false
    else begin
      invalidate_losses t s;
      evict t s;
      incr evictions
    end
  done;
  !evictions

let note_cost_change t _s =
  recompute_used t;
  enforce_budgets t

let note_budget_resize t =
  recompute_used t;
  enforce_budgets t

let force ?(admitted = []) t plan =
  if Mmd.Assignment.num_users plan <> View.num_slots t.view then
    invalid_arg "Planner.force: assignment user count <> view slots";
  reset t;
  let v = t.view in
  let admit_forced s =
    if not t.admitted.(s) then begin
      t.admitted.(s) <- true;
      let cost = View.cost_row v s in
      for i = 0 to View.m v - 1 do
        t.used.(i) <- t.used.(i) +. cost.(i)
      done
    end
  in
  List.iter admit_forced (Mmd.Assignment.range plan);
  (* Streams transmitted but currently delivered to nobody (their
     recipients all left since the last replan) are invisible in the
     assignment, yet they still consume budget and are free to deliver
     to later joiners — restoring them matters for bit-identical
     recovery. *)
  List.iter
    (fun s ->
      if s < 0 || s >= View.num_streams v then
        invalid_arg "Planner.force: admitted stream out of range";
      admit_forced s)
    admitted;
  for u = 0 to View.num_slots v - 1 do
    List.iter (fun s -> deliver_raw t u s) (Mmd.Assignment.user_streams plan u)
  done

(* The accumulated float state is path-dependent (every deliver /
   evict / leave nudges the rounding), so a plan rebuilt by [force]
   can differ from the live accumulators in the last ulp. Snapshots
   persist these bits so a restore continues the exact arithmetic. *)
let float_state t =
  let n = View.num_slots t.view in
  let mc = View.mc t.view in
  ( t.total.value,
    Array.sub t.used 0 (View.m t.view),
    Array.init n (fun u ->
        ( t.delivered_util.(u),
          t.capped.(u),
          Array.sub t.cap_used (u * mc) mc )) )

let set_float_state t ~total ~used ~slots =
  ensure_slots t;
  if Array.length used <> View.m t.view then
    invalid_arg "Planner.set_float_state: wrong budget measure count";
  if Array.length slots <> View.num_slots t.view then
    invalid_arg "Planner.set_float_state: wrong slot count";
  Array.iter
    (fun (_, _, cu) ->
      if Array.length cu <> View.mc t.view then
        invalid_arg "Planner.set_float_state: wrong capacity measure count")
    slots;
  t.total.value <- total;
  Array.blit used 0 t.used 0 (Array.length used);
  let mc = View.mc t.view in
  Array.iteri
    (fun u (du, cap, cu) ->
      t.delivered_util.(u) <- du;
      t.capped.(u) <- cap;
      Array.blit cu 0 t.cap_used (u * mc) (Array.length cu))
    slots
