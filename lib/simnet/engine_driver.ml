module C = Engine.Controller

type stats = {
  sim_time : float;
  utility_time : float;
  joins : int;
  leaves : int;
  peak_population : int;
  final_utility : float;
  report : Engine.Counters.report;
}

(* ---------- Replan supervisor ---------- *)

type supervisor_config = {
  replan_time_budget : float;
  max_retries : int;
  backoff : float;
}

let default_supervisor =
  { replan_time_budget = 5.; max_retries = 3; backoff = 0.05 }

type replan_outcome = {
  retries : int;
  fell_back : bool;
  overran : bool;
  seconds : float;
  backoff_waited : float;
}

let note_fallback_counters ctrl t0 =
  Engine.Counters.note_fallback (C.counters ctrl);
  Engine.Counters.note_recovery (C.counters ctrl)
    ~seconds:(Obs.Clock.elapsed_since t0)

let supervised_replan ?(config = default_supervisor)
    ?(inject = fun ~attempt:_ -> ()) ctrl =
  Obs.Span.with_ ~name:"driver.supervised_replan" (fun () ->
      (* The controller's plan is feasible by invariant at every delta
         boundary; capture it so a failed replan has something to fall
         back to. *)
      let last_feasible = C.plan ctrl in
      let t0 = Obs.Clock.now () in
      let waited = ref 0. in
      let rec attempt k =
        match
          inject ~attempt:k;
          C.replan ctrl
        with
        | () ->
            let seconds = Obs.Clock.elapsed_since t0 in
            { retries = k;
              fell_back = false;
              overran = seconds -. !waited > config.replan_time_budget;
              seconds;
              backoff_waited = !waited }
        | exception _ when k < config.max_retries ->
            (* Bounded exponential backoff. The wait is simulated
               (summed, not slept) so chaos tests stay fast and
               deterministic. *)
            waited := !waited +. (config.backoff *. float (1 lsl k));
            attempt (k + 1)
        | exception _ ->
            (* Out of retries: restore the last feasible plan and serve
               it. [Planner.force] resets the planner first, so a
               replan that died mid-solve leaves no partial state
               behind. *)
            Engine.Planner.force (C.planner ctrl) last_feasible;
            note_fallback_counters ctrl t0;
            { retries = k;
              fell_back = true;
              overran = false;
              seconds = Obs.Clock.elapsed_since t0;
              backoff_waited = !waited }
      in
      attempt 0)

(* ---------- The churn loop ---------- *)

(* What a deployment shape adds to the churn loop: how a scheduled
   fault fires, events of its own on the DES clock, and a last step
   before the final stats are read. *)
type shape = {
  node : Engine.Node.t;
  fire : Engine.Fault.event -> unit;
  start : Des.t -> unit;
  finish : unit -> unit;
}

let churn_loop ~rng ~duration ~join_rate ~mean_dwell ~churn ~faults ~batch shape =
  let node = shape.node in
  let des = Des.create () in
  let utility_time = ref 0. in
  let last = ref 0. in
  let joins = ref 0 and leaves = ref 0 and peak = ref 0 in
  (* Departures are fire-and-forget — nothing reads their result — so
     they defer onto a buffer drained through the node's batched entry
     point. The utility-time integral samples the node's utility at
     every event, so the buffer MUST drain before any observation:
     draining at the start of the next event, before its integrate_to,
     keeps the integral bit-identical to per-event applies (the
     deferred leave takes effect at the start of the interval it would
     have changed). The window is therefore one event deep whatever
     [batch] is — the DES is latency-bound where the replay CLI is
     throughput-bound. Fault boundaries observe the view per delta, so
     a fault schedule pins the window shut. *)
  let batch = if faults = [] then max 1 batch else 1 in
  (* Fault schedule boundaries count DES-fed deltas. *)
  let applied = ref 0 in
  let fire_faults () =
    incr applied;
    List.iter shape.fire (Engine.Fault.at faults !applied)
  in
  let pending = ref [] and npending = ref 0 in
  let flush_pending () =
    if !npending > 0 then begin
      let ds = List.rev !pending in
      pending := [];
      npending := 0;
      node.apply_batch ds;
      List.iter (fun _ -> fire_faults ()) ds
    end
  in
  let integrate_to now =
    flush_pending ();
    utility_time := !utility_time +. (node.utility () *. (now -. !last));
    last := now
  in
  let depart slot des =
    integrate_to (Des.now des);
    pending := Engine.Delta.User_leave slot :: !pending;
    incr npending;
    if !npending >= batch then flush_pending ();
    incr leaves
  in
  let schedule_departure slot =
    Des.schedule des
      ~delay:(Prelude.Sampling.exponential rng ~rate:(1. /. mean_dwell))
      (depart slot)
  in
  let rec join des =
    integrate_to (Des.now des);
    let spec = Engine.Churn.random_user rng (node.view ()) churn in
    (match node.apply (Engine.Delta.User_join spec) with
    | Engine.View.Joined slot ->
        incr joins;
        peak := max !peak (Engine.View.active_count (node.view ()));
        schedule_departure slot
    | _ -> ());
    fire_faults ();
    Des.schedule des
      ~delay:(Prelude.Sampling.exponential rng ~rate:join_rate)
      join
  in
  shape.start des;
  (* The seed population churns out like everyone else. *)
  List.iter schedule_departure (Engine.View.active_slots (node.view ()));
  peak := Engine.View.active_count (node.view ());
  Des.schedule des
    ~delay:(Prelude.Sampling.exponential rng ~rate:join_rate)
    join;
  Des.run ~until:duration des;
  integrate_to duration;
  shape.finish ();
  { sim_time = duration;
    utility_time = !utility_time;
    joins = !joins;
    leaves = !leaves;
    peak_population = !peak;
    final_utility = node.utility ();
    report = node.report () }

(* Faults against a single controller: shocks are absorbed, a task
   exception kills the first attempt of a supervised replan. *)
let fire_on_controller ?supervisor ctrl (e : Engine.Fault.event) =
  match e.kind with
  | Engine.Fault.Budget_shock _ | Engine.Fault.Stream_outage _ -> (
      match Engine.Fault.shock_delta (C.view ctrl) e.kind with
      | Some d -> ignore (C.absorb_shock ctrl d)
      | None -> ())
  | Engine.Fault.Task_exn ->
      (* The first replan attempt dies inside a pool task; the
         supervisor retries and the retry succeeds. *)
      Engine.Counters.note_fault (C.counters ctrl);
      ignore
        (supervised_replan ?config:supervisor
           ~inject:(fun ~attempt ->
             if attempt = 0 then Engine.Fault.raise_in_pool ())
           ctrl)
  | Engine.Fault.Corrupt_log | Engine.Fault.Torn_snapshot ->
      (* Storage faults are exercised by the WAL/snapshot paths, not
         the in-memory simulation. *)
      ()
  | Engine.Fault.Drop_frame _ | Engine.Fault.Dup_frame _
  | Engine.Fault.Reorder_frames _ | Engine.Fault.Truncate_frame _
  | Engine.Fault.Follower_crash _ | Engine.Fault.Primary_crash
  | Engine.Fault.Heartbeat_partition _ | Engine.Fault.Hold_frames _
  | Engine.Fault.Link_partition _ | Engine.Fault.Link_reset _
  | Engine.Fault.Hand_over ->
      (* Replication faults attack the shipping layer; the
         Replica.Chaos harness drives them. *)
      ()

let run ~rng ?(duration = 1000.) ?(join_rate = 0.2) ?(mean_dwell = 400.)
    ?(epoch = C.Drift 0.05) ?(churn = Engine.Churn.default)
    ?(faults = ([] : Engine.Fault.schedule)) ?supervisor ?(batch = 1) inst =
  let ctrl = C.create ~policy:epoch inst in
  churn_loop ~rng ~duration ~join_rate ~mean_dwell ~churn ~faults ~batch
    { node = Engine.Node.of_controller ctrl;
      fire = fire_on_controller ?supervisor ctrl;
      start = ignore;
      finish = ignore }

(* ---------- Replicated run ---------- *)

type replicated_stats = {
  rbase : stats;
  failovers : int;
  final_term : int;
  final_primary : int;
  time_to_promote : float;
  min_follower_acked : int;
  replicated_last_seq : int;
}

let run_replicated ~rng ?(duration = 1000.) ?(join_rate = 0.2)
    ?(mean_dwell = 400.) ?(epoch = C.Drift 0.05)
    ?(churn = Engine.Churn.default) ?(replicas = 2) ?heartbeat_every
    ?kill_primary_at ?(faults = ([] : Engine.Fault.schedule)) inst =
  let module G = Replica.Group in
  let config = G.heartbeat_config heartbeat_every in
  let g = G.create ~policy:epoch ~config ~replicas inst in
  (* The kill lands between DES events; detection and promotion finish
     before anything reads the group again. *)
  let kill _ =
    G.kill_primary g;
    G.ensure_promoted g
  in
  let rbase =
    churn_loop ~rng ~duration ~join_rate ~mean_dwell ~churn ~faults ~batch:1
      { node = G.node g;
        fire = Replica.Chaos.fire g;
        start =
          (fun des ->
            Option.iter (fun at -> Des.schedule des ~delay:at kill) kill_primary_at);
        finish = (fun () -> ignore (G.quiesce g)) }
  in
  let acked = List.filter_map (G.acked g) (G.live_followers g) in
  { rbase;
    failovers = G.failovers g;
    final_term = G.term g;
    final_primary = G.primary_id g;
    time_to_promote = G.last_promote_seconds g;
    min_follower_acked = (if acked = [] then 0 else List.fold_left min max_int acked);
    replicated_last_seq = G.last_seq g }

let policy ?(replan_every = 16) ?(epoch = C.Manual) inst =
  let ctrl = C.create ~policy:epoch inst in
  let usage = Baselines.Usage.create inst in
  let live = Hashtbl.create 32 in
  let offers_since = ref 0 in
  let refresh () =
    (* Sorted so the pinned order — and hence the replan's admit order
       and any printed report — is independent of hash iteration. *)
    C.set_pinned ctrl
      (List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) live []));
    C.replan ctrl;
    offers_since := 0
  in
  let offer ~now:_ ~duration:_ s =
    if Baselines.Usage.admitted usage s then []
    else begin
      incr offers_since;
      if
        (not (Engine.Planner.is_admitted (C.planner ctrl) s))
        && !offers_since >= replan_every
      then refresh ();
      if
        Engine.Planner.is_admitted (C.planner ctrl) s
        && Baselines.Usage.server_fits usage s
      then begin
        let users =
          Engine.Planner.assignment (C.planner ctrl) |> fun plan ->
          Array.to_list (Mmd.Instance.interested_users inst s)
          |> List.filter (fun u ->
                 Mmd.Assignment.assigns plan u s
                 && Baselines.Usage.user_fits usage ~user:u ~stream:s)
        in
        if users = [] then []
        else begin
          Baselines.Usage.admit usage ~stream:s ~users;
          Hashtbl.replace live s ();
          users
        end
      end
      else []
    end
  in
  let release s =
    Baselines.Usage.release usage s;
    Hashtbl.remove live s
  in
  { Policy.name = "engine"; offer; release }
