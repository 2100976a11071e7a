module C = Engine.Controller
module V = Engine.View
module D = Engine.Delta
module I = Mmd.Instance

type budget_split = Even | Demand

(* A shard is either one bare controller or a whole replica group
   (primary + followers behind WAL shipping). Every access to "the
   shard's controller" goes through [ctrl], which in replicated mode
   resolves to the group's current primary — so a failover inside a
   shard is invisible to the routing tables. *)
type backend = Plain of C.t array | Replicated of Replica.Group.t array

type t = {
  map : Shard_map.t;
  split : budget_split;
  mirror : V.t;
  backend : backend;
  wals : Engine.Wal.writer array option;
  (* Global slot id -> owner. The mirror allocates global ids with the
     unsharded engine's exact slot discipline, so these arrays are
     dense and grow with the mirror. *)
  mutable shard_of : int array;
  mutable local_of : int array;
  counts : int array;
  demand : float array;
  mutable certificates : int;
  mutable certified_ratio : float;
}

let ctrl t i =
  match t.backend with
  | Plain cs -> cs.(i)
  | Replicated gs -> Replica.Group.primary gs.(i)

let shard_label i = [ ("shard", string_of_int i) ]

(* The shard's initial world: the full catalog under its budget share,
   plus the users dealt to it, in ascending global id order. Costs
   that undercut the share are clamped down to it by [restrict] — the
   same clamp the view applies on any budget shrink. *)
let sub_instance inst ~assign ~shard ~share =
  let users = ref [] in
  Array.iteri (fun u s -> if s = shard then users := u :: !users) assign;
  I.restrict inst ~users:(Array.of_list (List.rev !users)) ~budget:share
    ~name:(Printf.sprintf "%s/shard-%d" (I.name inst) shard)

let slot_demand view l =
  List.fold_left (fun acc s -> acc +. V.utility view l s) 0. (V.interests view l)

let create ?(policy = C.Every 64) ?(split = Even) ?wal_dir ?replicas
    ?heartbeat_every ~map inst =
  let n = Shard_map.num_shards map in
  let nu = I.num_users inst in
  let assign = Shard_map.plan map ~users:nu in
  (* Initial budget shares are even; [resplit_budgets] switches a
     Demand router to the skew-aware split once demand is visible. *)
  let share =
    Array.init (I.m inst) (fun i -> I.budget inst i /. float_of_int n)
  in
  let wals =
    Option.map
      (fun dir ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Array.init n (fun i ->
            Engine.Wal.append_file (Filename.concat dir
               (Printf.sprintf "shard-%d.wal" i))))
      wal_dir
  in
  let backend =
    match replicas with
    | None | Some 0 ->
        Plain
          (Array.init n (fun i ->
               C.create ~policy ~labels:(shard_label i)
                 (sub_instance inst ~assign ~shard:i ~share)))
    | Some r ->
        let config = Replica.Group.heartbeat_config heartbeat_every in
        Replicated
          (Array.init n (fun i ->
               Replica.Group.create ~policy ~config ~labels:(shard_label i)
                 ?wal:(Option.map (fun ws -> ws.(i)) wals)
                 ~replicas:r
                 (sub_instance inst ~assign ~shard:i ~share)))
  in
  let t =
    { map;
      split;
      mirror = V.of_instance inst;
      backend;
      wals;
      shard_of = Array.make (max 1 nu) (-1);
      local_of = Array.make (max 1 nu) (-1);
      counts = Array.make n 0;
      demand = Array.make n 0.;
      certificates = 0;
      certified_ratio = 0. }
  in
  (* Global id u landed on shard assign.(u) at local id = its rank
     among that shard's users — the order sub_instance listed them. *)
  let next_local = Array.make n 0 in
  Array.iteri
    (fun u s ->
      t.shard_of.(u) <- s;
      t.local_of.(u) <- next_local.(s);
      next_local.(s) <- next_local.(s) + 1;
      t.counts.(s) <- t.counts.(s) + 1;
      t.demand.(s) <- t.demand.(s) +. slot_demand (C.view (ctrl t s)) t.local_of.(u))
    assign;
  t

let num_shards t =
  match t.backend with
  | Plain cs -> Array.length cs
  | Replicated gs -> Array.length gs

let map t = t.map

let ensure_global t g =
  let len = Array.length t.shard_of in
  if g >= len then begin
    let len' = max (g + 1) (2 * len) in
    let grow a =
      let a' = Array.make len' (-1) in
      Array.blit a 0 a' 0 len;
      a'
    in
    t.shard_of <- grow t.shard_of;
    t.local_of <- grow t.local_of
  end

let wal_append ?flush t shard d =
  match t.wals with
  | None -> ()
  | Some ws -> ignore (Engine.Wal.append_tee ?flush ws.(shard) d)

(* Every controller apply in the routing paths is paired with a WAL
   append of the same local delta; in replicated mode both happen
   inside the group (primary apply, tee to its writer, ship to
   followers). *)
let shard_apply ?flush t i d =
  match t.backend with
  | Replicated gs -> Replica.Group.apply ?flush gs.(i) d
  | Plain cs ->
      let applied = C.apply cs.(i) d in
      wal_append ?flush t i d;
      applied

let budget_shares t b =
  let n = num_shards t in
  let even () =
    Array.init n (fun _ -> Array.map (fun x -> x /. float_of_int n) b)
  in
  match t.split with
  | Even -> even ()
  | Demand ->
      (* The incremental demand accumulator can hold a tiny negative
         residue after a shard empties (float cancellation); clamp so
         no share ever goes negative. *)
      let d = Array.map (Float.max 0.) t.demand in
      let total = Array.fold_left ( +. ) 0. d in
      if total <= 0. then even ()
      else
        Array.init n (fun i ->
            let w = d.(i) /. total in
            Array.map (fun x -> if x = Float.infinity then x else x *. w) b)

let apply_opt ?flush t (d : D.t) : V.applied =
  match d with
  | D.User_join _ ->
      let applied = V.apply t.mirror d in
      let g = match applied with V.Joined g -> g | _ -> assert false in
      let shard = Shard_map.route t.map ~counts:t.counts in
      let la = shard_apply ?flush t shard d in
      let l = match la with V.Joined l -> l | _ -> assert false in
      ensure_global t g;
      t.shard_of.(g) <- shard;
      t.local_of.(g) <- l;
      t.counts.(shard) <- t.counts.(shard) + 1;
      t.demand.(shard) <-
        t.demand.(shard) +. slot_demand (C.view (ctrl t shard)) l;
      applied
  | D.User_leave g ->
      if g < 0 || g >= Array.length t.shard_of || t.shard_of.(g) < 0 then
        invalid_arg "Router.apply: leave of an inactive slot";
      let shard = t.shard_of.(g) in
      let l = t.local_of.(g) in
      let du = slot_demand (C.view (ctrl t shard)) l in
      let applied = V.apply t.mirror d in
      ignore (shard_apply ?flush t shard (D.User_leave l));
      t.shard_of.(g) <- -1;
      t.local_of.(g) <- -1;
      t.counts.(shard) <- t.counts.(shard) - 1;
      t.demand.(shard) <- t.demand.(shard) -. du;
      applied
  | D.Stream_cost_change _ ->
      let applied = V.apply t.mirror d in
      for i = 0 to num_shards t - 1 do
        ignore (shard_apply ?flush t i d)
      done;
      applied
  | D.Budget_resize b ->
      let applied = V.apply t.mirror d in
      let shares = budget_shares t b in
      Array.iteri
        (fun i share -> ignore (shard_apply ?flush t i (D.Budget_resize share)))
        shares;
      applied

let apply t d = apply_opt t d

let flush_wals t =
  (match t.wals with
  | Some ws -> Array.iter Engine.Wal.flush_writer ws
  | None -> ());
  match t.backend with
  | Replicated gs -> Array.iter Replica.Group.flush_wal gs
  | Plain _ -> ()

(* Routing is inherently sequential — the mirror's slot allocation,
   the least-loaded routing choice and the ownership tables all depend
   on every earlier delta — so the batch routes records one at a time
   and amortizes the per-shard WAL OS flushes over the batch. Bytes on
   disk (and replication frames shipped) are identical to the
   one-at-a-time path. *)
let apply_batch t ds =
  Fun.protect
    ~finally:(fun () -> flush_wals t)
    (fun () -> List.iter (fun d -> ignore (apply_opt ~flush:false t d)) ds)

let apply_all t ds = List.iter (fun d -> ignore (apply t d)) ds

let resplit_budgets t =
  let b = Array.init (V.m t.mirror) (V.budget t.mirror) in
  let shares = budget_shares t b in
  Array.iteri
    (fun i share -> ignore (shard_apply t i (D.Budget_resize share)))
    shares

(* Shards plan over disjoint sub-worlds, so their replans are
   independent and run concurrently on the domain pool — each shard's
   own parallel planner stages then run inline (nested pool calls
   degrade to sequential), keeping every shard's float summation order,
   and therefore every plan, bit-identical to the sequential path. *)
let replan_all t =
  let n = num_shards t in
  ignore
    (Prelude.Pool.parallel_map
       (fun i ->
         C.replan (ctrl t i);
         i)
       (Array.init n Fun.id))

let shard_of_slot t g =
  if g < 0 || g >= Array.length t.shard_of then -1 else t.shard_of.(g)

let counts t = Array.copy t.counts
let demand t = Array.copy t.demand
let controller t i = ctrl t i
let mirror t = t.mirror

(* ---------- Replication surface ---------- *)

let replicated t =
  match t.backend with Replicated _ -> true | Plain _ -> false

let group t i =
  match t.backend with Replicated gs -> Some gs.(i) | Plain _ -> None

let kill_primary t i =
  match t.backend with
  | Replicated gs -> Replica.Group.kill_primary gs.(i)
  | Plain _ -> ()

let fail_over t i =
  match t.backend with
  | Replicated gs -> Replica.Group.fail_over gs.(i)
  | Plain _ -> false

let failovers t =
  match t.backend with
  | Replicated gs ->
      Array.fold_left (fun acc g -> acc + Replica.Group.failovers g) 0 gs
  | Plain _ -> 0

let quiesce_replicas t =
  match t.backend with
  | Replicated gs -> Array.for_all (fun g -> Replica.Group.quiesce g) gs
  | Plain _ -> true

(* One rebalance move: evict the highest global slot on the donor and
   replay its spec into the receiver — two ordinary deltas through the
   shards' apply paths. The mirror and the global id are untouched;
   only the ownership tables change. *)
let move_one t ~from_shard ~to_shard =
  let g = ref (Array.length t.shard_of - 1) in
  while !g >= 0 && t.shard_of.(!g) <> from_shard do
    decr g
  done;
  if !g < 0 then false
  else begin
    let g = !g in
    let l = t.local_of.(g) in
    let from_view = C.view (ctrl t from_shard) in
    let spec = V.user_spec from_view l in
    let du = slot_demand from_view l in
    ignore (shard_apply t from_shard (D.User_leave l));
    let la = shard_apply t to_shard (D.User_join spec) in
    let l' = match la with V.Joined l' -> l' | _ -> assert false in
    t.shard_of.(g) <- to_shard;
    t.local_of.(g) <- l';
    t.counts.(from_shard) <- t.counts.(from_shard) - 1;
    t.counts.(to_shard) <- t.counts.(to_shard) + 1;
    t.demand.(from_shard) <- t.demand.(from_shard) -. du;
    t.demand.(to_shard) <-
      t.demand.(to_shard) +. slot_demand (C.view (ctrl t to_shard)) l';
    true
  end

let rebalance t ~k =
  let moves = Shard_map.rebalance t.map ~counts:t.counts ~k in
  List.fold_left
    (fun n { Shard_map.from_shard; to_shard } ->
      if move_one t ~from_shard ~to_shard then n + 1 else n)
    0 moves

let utility t =
  let acc = ref 0. in
  for i = 0 to num_shards t - 1 do
    acc := !acc +. C.utility (ctrl t i)
  done;
  !acc

(* Replicated shards report through their current primary only:
   follower counters mirror the primary's delta stream, so summing
   over them would multiply every count by the replication factor. *)
let report t =
  let n = num_shards t in
  let rs = Array.init n (fun i -> C.report (ctrl t i)) in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 rs in
  let replan_h = Obs.Hist.create () and recovery_h = Obs.Hist.create () in
  for i = 0 to n - 1 do
    let cnt = C.counters (ctrl t i) in
    Obs.Hist.merge_into ~into:replan_h (Engine.Counters.replan_hist cnt);
    Obs.Hist.merge_into ~into:recovery_h (Engine.Counters.recovery_hist cnt)
  done;
  let open Engine.Counters in
  let evals = sum (fun r -> r.evals)
  and eager_equiv = sum (fun r -> r.eager_equiv) in
  { deltas = sum (fun r -> r.deltas);
    joins = sum (fun r -> r.joins);
    leaves = sum (fun r -> r.leaves);
    cost_changes = sum (fun r -> r.cost_changes);
    budget_resizes = sum (fun r -> r.budget_resizes);
    replans = sum (fun r -> r.replans);
    evictions = sum (fun r -> r.evictions);
    evals;
    eager_equiv;
    evals_saved = max 0 (eager_equiv - evals);
    replan_latency = Obs.Hist.to_summary replan_h;
    faults = sum (fun r -> r.faults);
    quarantined = sum (fun r -> r.quarantined);
    recoveries = sum (fun r -> r.recoveries);
    fallbacks = sum (fun r -> r.fallbacks);
    recovery_latency = Obs.Hist.to_summary recovery_h;
    certificates = t.certificates;
    certified_ratio = t.certified_ratio }

(* One certified bound for the whole fleet: every shard emits a sparse
   certificate for its own sub-world (target = its achieved utility),
   and the pieces compose under Checker's partial/compose split — the
   per-user dual terms add across the disjoint populations, while the
   budget duals must be one global vector, taken as the count-weighted
   average of the shards' (any non-negative choice is sound; averaging
   keeps each shard's tuning roughly in force). The composed
   certificate is then re-checked against the mirror — the unsharded
   problem — so the number reported is the independent checker's, not
   a sum of shard claims. With one shard the weight is exactly [1.],
   every float op matches the unsharded [Engine.Certify] path, and the
   bound is bit-identical to it. *)
let certify ?iters t =
  let n = num_shards t in
  let mirror_p = Engine.Certify.problem_of_view t.mirror in
  let shard_certs =
    Array.init n (fun i ->
        let c = ctrl t i in
        let p = Engine.Certify.problem_of_view (C.view c) in
        let cert, stats = Cert.Sparse.emit ?iters ~target:(C.utility c) p in
        (p, cert, stats))
  in
  let m = V.m t.mirror in
  let total = Array.fold_left ( + ) 0 t.counts in
  let lambda =
    Array.init m (fun i ->
        if total = 0 then
          let _, c, _ = shard_certs.(0) in
          c.Cert.Certificate.budget_dual.(i)
        else begin
          let acc = ref 0. in
          for s = 0 to n - 1 do
            let _, c, _ = shard_certs.(s) in
            let w = float_of_int t.counts.(s) /. float_of_int total in
            acc := !acc +. (w *. c.Cert.Certificate.budget_dual.(i))
          done;
          !acc
        end)
  in
  let partials =
    Array.to_list
      (Array.map (fun (p, c, _) -> Cert.Checker.partial p c) shard_certs)
  in
  let bound =
    Cert.Checker.compose ~m ~budget:(V.budget t.mirror)
      ~num_streams:(V.num_streams t.mirror)
      ~server_cost:(V.server_cost t.mirror) ~lambda partials
  in
  (* Reassemble the per-user duals in the mirror's user order: global
     slot -> owning shard -> rank of its local slot among that shard's
     active slots (the order the shard's problem listed its users). *)
  let shard_rank =
    Array.init n (fun i ->
        let slots = V.active_slots (C.view (ctrl t i)) in
        let tbl = Hashtbl.create 64 in
        List.iteri (fun r l -> Hashtbl.replace tbl l r) slots;
        tbl)
  in
  let mirror_slots = Array.of_list (V.active_slots t.mirror) in
  let locate u =
    let g = mirror_slots.(u) in
    let s = t.shard_of.(g) in
    (s, Hashtbl.find shard_rank.(s) t.local_of.(g))
  in
  let nu = Array.length mirror_slots in
  let composed =
    { Cert.Certificate.budget_dual = lambda;
      capacity_dual =
        Array.init nu (fun u ->
            let s, r = locate u in
            let _, c, _ = shard_certs.(s) in
            Array.copy c.Cert.Certificate.capacity_dual.(r));
      cap_dual =
        Array.init nu (fun u ->
            let s, r = locate u in
            let _, c, _ = shard_certs.(s) in
            c.Cert.Certificate.cap_dual.(r));
      bound }
  in
  match Cert.Checker.check mirror_p composed with
  | Cert.Checker.Rejected msg -> Error msg
  | Cert.Checker.Certified { bound; repaired } ->
      let achieved = utility t in
      let ratio = Engine.Certify.ratio_of ~achieved ~bound in
      t.certificates <- t.certificates + 1;
      t.certified_ratio <- ratio;
      Engine.Counters.set_certified_gauge ratio;
      Ok
        ( { Engine.Certify.bound;
            achieved;
            ratio;
            repaired;
            iterations =
              Array.fold_left
                (fun acc (_, _, s) -> acc + s.Cert.Sparse.iterations)
                0 shard_certs },
          composed )

(* Lazy mode: identical plan to eager by construction (tie-break to
   the lower stream id), and the only affordable mode at 1M users —
   eager re-evaluates every live candidate per admission. *)
let global_scratch t = C.scratch ~mode:Engine.Planner.Lazy t.mirror

let close t =
  match t.wals with
  | None -> ()
  | Some ws -> Array.iter Engine.Wal.close ws

let node t =
  { Engine.Node.apply = apply t;
    apply_batch = apply_batch t;
    view = (fun () -> t.mirror);
    utility = (fun () -> utility t);
    replan = (fun () -> replan_all t);
    report = (fun () -> report t);
    close = (fun () -> close t) }
