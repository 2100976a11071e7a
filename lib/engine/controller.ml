type epoch_policy = Every of int | Drift of float | Manual

let policy_of_string s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "manual" ] -> Ok Manual
  | [ "every"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Ok (Every n)
      | _ -> Error (Printf.sprintf "bad epoch period %S" n))
  | [ "drift"; x ] -> (
      match float_of_string_opt x with
      | Some x when x > 0. -> Ok (Drift x)
      | _ -> Error (Printf.sprintf "bad drift threshold %S" x))
  | _ ->
      Error
        (Printf.sprintf "bad epoch policy %S (try every:N, drift:X, manual)" s)

let policy_to_string = function
  | Manual -> "manual"
  | Every n -> Printf.sprintf "every:%d" n
  | Drift x -> Printf.sprintf "drift:%.17g" x

type t = {
  view : View.t;
  planner : Planner.t;
  counters : Counters.t;
  policy : epoch_policy;
  mutable since_replan : int;
  mutable utility_at_replan : float;
  mutable deltas_applied : int;
  mutable degraded : bool;
}

(* One epoch: lazy greedy from empty, with the §2.2 best-single fix —
   if a single stream alone beats the whole greedy plan, restart the
   greedy from that stream (restarting only improves on taking the
   single stream alone). Identical control flow for both modes, so
   Lazy and Eager produce the same plan. *)
let solve ?(mode = Planner.Lazy) planner ~pinned =
  let plain () =
    Planner.reset planner;
    List.iter (fun s -> ignore (Planner.admit planner s)) pinned;
    Planner.extend ~mode planner
  in
  plain ();
  match Planner.best_single planner with
  | Some (s, single) when single > Planner.utility planner ->
      (* The restart applies even when [s] is in the greedy plan:
         admitted late, it can be crowded out at user capacities by
         earlier picks and deliver less than it would alone. From an
         empty plan [admit s] delivers its full stand-alone value. *)
      let greedy_util = Planner.utility planner in
      Planner.reset planner;
      List.iter (fun s -> ignore (Planner.admit planner s)) pinned;
      let admitted = Planner.admit planner s in
      if admitted then Planner.extend ~mode planner;
      (* With pins the restart can lose (the pinned set crowds [s] or
         eats its capacity); keep whichever plan is better. *)
      if (not admitted) || Planner.utility planner < greedy_util then
        plain ()
  | _ -> ()

let replan ?mode t =
  Obs.Span.with_ ~name:"controller.replan" (fun () ->
      let t0 = Obs.Clock.now () in
      solve ?mode t.planner ~pinned:(Planner.pinned t.planner);
      Counters.note_replan t.counters ~seconds:(Obs.Clock.elapsed_since t0);
      t.since_replan <- 0;
      t.utility_at_replan <- Planner.utility t.planner;
      t.degraded <- false)

let create ?(policy = Every 64) ?(pinned = []) ?(labels = []) inst =
  let view = View.of_instance inst in
  let planner = Planner.create view in
  Planner.set_pinned planner pinned;
  let t =
    { view;
      planner;
      counters = Counters.create ~labels ();
      policy;
      since_replan = 0;
      utility_at_replan = 0.;
      deltas_applied = 0;
      degraded = false }
  in
  replan t;
  t

let of_state ?(since_replan = 0) ?(deltas_applied = 0) ?utility_at_replan
    ?admitted ?(labels = []) ~policy ~pinned ~view ~plan () =
  let planner = Planner.create view in
  Planner.set_pinned planner pinned;
  Planner.force ?admitted planner plan;
  let utility_at_replan =
    match utility_at_replan with
    | Some u -> u
    | None -> Planner.utility planner
  in
  { view;
    planner;
    counters = Counters.create ~labels ();
    policy;
    since_replan;
    utility_at_replan;
    deltas_applied;
    degraded = false }

let maybe_replan t =
  match t.policy with
  | Manual -> ()
  | Every n -> if t.since_replan >= n then replan t
  | Drift threshold ->
      let base = Float.max 1e-9 t.utility_at_replan in
      if
        Float.abs (Planner.utility t.planner -. t.utility_at_replan) /. base
        > threshold
      then replan t

let apply t delta =
  let applied = View.apply t.view delta in
  (match applied with
  | View.Joined slot -> Planner.note_join t.planner slot
  | View.Left slot -> Planner.note_leave t.planner slot
  | View.Cost_changed s ->
      let evictions = Planner.note_cost_change t.planner s in
      for _ = 1 to evictions do
        Counters.note_eviction t.counters
      done
  | View.Budgets_resized ->
      let evictions = Planner.note_budget_resize t.planner in
      for _ = 1 to evictions do
        Counters.note_eviction t.counters
      done);
  Counters.note_delta t.counters delta;
  t.deltas_applied <- t.deltas_applied + 1;
  t.since_replan <- t.since_replan + 1;
  maybe_replan t;
  applied

let apply_all t deltas = List.iter (fun d -> ignore (apply t d)) deltas

(* Batched application. Each delta runs through exactly the per-delta
   state machine of [apply] — view mutation, incremental plan repair,
   and the epoch-policy check at every delta, so replans fire at the
   same positions whatever the batch size and the final state is
   bit-identical to one-at-a-time application by construction. What
   the batch amortizes: the counter-registry flush (one bulk update
   instead of an atomic per delta) and the tracing span; callers
   holding a WAL amortize the per-record flush the same way. *)
let apply_batch ?on_applied t deltas =
  match deltas with
  | [] -> ()
  | _ ->
      Obs.Span.with_ ~name:"controller.apply_batch"
        ~attrs:[ ("n", string_of_int (List.length deltas)) ]
        (fun () ->
          let joins = ref 0 and leaves = ref 0 in
          let costs = ref 0 and budgets = ref 0 in
          (* A delta that raises ends the batch; the prefix before it
             was applied and is counted like the one-at-a-time path
             counts it. *)
          Fun.protect
            ~finally:(fun () ->
              Counters.note_deltas t.counters ~joins:!joins ~leaves:!leaves
                ~cost_changes:!costs ~budget_resizes:!budgets)
          @@ fun () ->
          List.iter
            (fun d ->
              let applied = View.apply t.view d in
              (match applied with
              | View.Joined slot ->
                  incr joins;
                  Planner.note_join t.planner slot
              | View.Left slot ->
                  incr leaves;
                  Planner.note_leave t.planner slot
              | View.Cost_changed s ->
                  incr costs;
                  let evictions = Planner.note_cost_change t.planner s in
                  for _ = 1 to evictions do
                    Counters.note_eviction t.counters
                  done
              | View.Budgets_resized ->
                  incr budgets;
                  let evictions = Planner.note_budget_resize t.planner in
                  for _ = 1 to evictions do
                    Counters.note_eviction t.counters
                  done);
              (match on_applied with Some f -> f applied | None -> ());
              t.deltas_applied <- t.deltas_applied + 1;
              t.since_replan <- t.since_replan + 1;
              maybe_replan t)
            deltas)

type recovery = {
  evictions : int;
  utility_sacrificed : float;
  seconds : float;
}

(* A shock is a delta applied through the same state machine as
   [apply] — so a WAL replay that sees the shock as an ordinary
   cost/budget record evolves bit-identically — but instrumented as a
   fault: the evictions the repair performs, the utility the plan
   sacrificed to stay feasible, and the time the repair took are
   measured and surfaced, and the controller is flagged degraded until
   the next replan wins that utility back. *)
let absorb_shock t delta =
  Obs.Span.with_ ~name:"controller.absorb_shock" (fun () ->
      let t0 = Obs.Clock.now () in
      let u0 = Planner.utility t.planner in
      let _, _, _, _, _, e0 = Counters.fields t.counters in
      Counters.note_fault t.counters;
      ignore (apply t delta);
      let _, _, _, _, _, e1 = Counters.fields t.counters in
      let evictions = e1 - e0 in
      let utility_sacrificed =
        Float.max 0. (u0 -. Planner.utility t.planner)
      in
      if evictions > 0 || utility_sacrificed > 0. then begin
        (* The plan is feasible again (the repair ran inside [apply]):
           that repair is the recovery, and if it cost utility the plan
           is degraded until a replan re-optimizes. *)
        Counters.note_recovery t.counters
          ~seconds:(Obs.Clock.elapsed_since t0);
        if t.since_replan > 0 then t.degraded <- true
      end;
      { evictions;
        utility_sacrificed;
        seconds = Obs.Clock.elapsed_since t0 })

let degraded t = t.degraded

let is_plan_feasible t =
  Mmd.Assignment.is_feasible (View.materialize t.view)
    (Planner.assignment t.planner)

(* Belt-and-braces repair for faults that bypass the delta path:
   re-derive budget usage from the admitted set and evict
   lowest-density assignments (the greedy's own eviction order) until
   every budget holds. *)
let restore_feasibility t =
  Obs.Span.with_ ~name:"controller.restore_feasibility" (fun () ->
      let t0 = Obs.Clock.now () in
      let u0 = Planner.utility t.planner in
      let evictions = Planner.note_budget_resize t.planner in
      for _ = 1 to evictions do
        Counters.note_eviction t.counters
      done;
      let utility_sacrificed =
        Float.max 0. (u0 -. Planner.utility t.planner)
      in
      if evictions > 0 then begin
        Counters.note_recovery t.counters
          ~seconds:(Obs.Clock.elapsed_since t0);
        t.degraded <- true
      end;
      { evictions;
        utility_sacrificed;
        seconds = Obs.Clock.elapsed_since t0 })

let view t = t.view
let planner t = t.planner
let plan t = Planner.assignment t.planner
let utility t = Planner.utility t.planner
let set_pinned t streams = Planner.set_pinned t.planner streams
let pinned t = Planner.pinned t.planner
let policy t = t.policy
let deltas_applied t = t.deltas_applied
let since_replan t = t.since_replan
let utility_at_replan t = t.utility_at_replan
let counters t = t.counters

let report t =
  Counters.report t.counters ~evals:(Planner.evals t.planner)
    ~eager_equiv:(Planner.eager_equiv t.planner)

let node t =
  { Node.apply = apply t;
    apply_batch = apply_batch t;
    view = (fun () -> t.view);
    utility = (fun () -> utility t);
    replan = (fun () -> replan t);
    report = (fun () -> report t);
    close = ignore }

let scratch_planner ?(mode = Planner.Eager) ?(pinned = []) view =
  let planner = Planner.create view in
  Planner.set_pinned planner pinned;
  solve ~mode planner ~pinned;
  planner

let scratch ?mode ?pinned view =
  let planner = scratch_planner ?mode ?pinned view in
  (Planner.utility planner, Planner.evals planner)
