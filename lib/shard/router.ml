module C = Engine.Controller
module V = Engine.View
module D = Engine.Delta
module I = Mmd.Instance

type budget_split = Even | Demand

type builder =
  labels:(string * string) list ->
  ?wal:Engine.Wal.writer ->
  Mmd.Instance.t ->
  Engine.Node.t

(* Each shard is a node: the router routes deltas to it and reads its
   view, utility and controllers, and never knows what executes them —
   a bare controller, or a replica group whose failover is its own
   business. *)
type t = {
  map : Shard_map.t;
  split : budget_split;
  skeleton : V.t;
  (* The unsharded world fed every delta, joins without their
     interests: [V.apply] allocates the global slots and keeps costs
     and budgets by its own rules, and no incidence list grows. *)
  shards : Engine.Node.t array;
  (* Global slot id -> owner. The skeleton allocates global ids, so
     these arrays are dense and grow with it. *)
  mutable shard_of : int array;
  mutable local_of : int array;
  counts : int array;
  demand : float array;
  mutable certificates : int;
  mutable certified_ratio : float;
}

let shard_view t i = t.shards.(i).Engine.Node.view ()
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

let create ?(policy = C.Every 64) ?(split = Even) ?wal_dir ?build ~map inst =
  let build =
    match build with
    | Some build -> build
    | None ->
        fun ~labels ?wal inst ->
          Engine.Node.of_controller ?wal (C.create ~policy ~labels inst)
  in
  let n = Shard_map.num_shards map in
  let nu = I.num_users inst in
  let assign = Shard_map.plan map ~users:nu in
  (* Initial budget shares are even; [resplit_budgets] switches a
     Demand router to the skew-aware split once demand is visible. *)
  let budget = Array.init (I.m inst) (I.budget inst) in
  let share = Array.map (fun b -> b /. float_of_int n) budget in
  Option.iter
    (fun dir ->
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    wal_dir;
  (* The router opens each shard's WAL, so its node's [close] also
     closes the writer after whatever the node itself releases. *)
  let shard i =
    let wal =
      Option.map
        (fun dir ->
          Engine.Wal.append_file
            (Filename.concat dir (Printf.sprintf "shard-%d.wal" i)))
        wal_dir
    in
    let node =
      build ~labels:(shard_label i) ?wal
        (sub_instance inst ~assign ~shard:i ~share)
    in
    match wal with
    | None -> node
    | Some w ->
        { node with
          close =
            (fun () ->
              node.close ();
              Engine.Wal.close w) }
  in
  (* The initial users join the skeleton in global id order, taking
     slots 0 .. nu-1 as [V.of_instance] would give them. *)
  let skeleton = V.of_instance (I.restrict inst ~users:[||] ~budget) in
  for u = 0 to nu - 1 do
    ignore
      (V.apply skeleton
         (D.User_join
            { D.utility_cap = I.utility_cap inst u;
              capacity = Array.init (I.mc inst) (I.capacity inst u);
              interests = [] }))
  done;
  let t =
    { map;
      split;
      skeleton;
      shards = Array.init n shard;
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
      t.demand.(s) <- t.demand.(s) +. slot_demand (shard_view t s) t.local_of.(u))
    assign;
  t

let num_shards t = Array.length t.shards

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

let shard_apply ?flush t i d = t.shards.(i).Engine.Node.apply ?flush d

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
  | D.User_join spec ->
      (* The shard validates the full spec, so a refused join stops
         there, before the skeleton has allocated a global slot. *)
      let shard = Shard_map.route t.map ~counts:t.counts in
      let la = shard_apply ?flush t shard d in
      let l = match la with V.Joined l -> l | _ -> assert false in
      let applied =
        V.apply t.skeleton (D.User_join { spec with interests = [] })
      in
      let g = match applied with V.Joined g -> g | _ -> assert false in
      ensure_global t g;
      t.shard_of.(g) <- shard;
      t.local_of.(g) <- l;
      t.counts.(shard) <- t.counts.(shard) + 1;
      t.demand.(shard) <-
        t.demand.(shard) +. slot_demand (shard_view t shard) l;
      applied
  | D.User_leave g ->
      if g < 0 || g >= Array.length t.shard_of || t.shard_of.(g) < 0 then
        invalid_arg "Router.apply: leave of an inactive slot";
      let shard = t.shard_of.(g) in
      let l = t.local_of.(g) in
      let du = slot_demand (shard_view t shard) l in
      let applied = V.apply t.skeleton d in
      ignore (shard_apply ?flush t shard (D.User_leave l));
      t.shard_of.(g) <- -1;
      t.local_of.(g) <- -1;
      t.counts.(shard) <- t.counts.(shard) - 1;
      t.demand.(shard) <- t.demand.(shard) -. du;
      applied
  | D.Stream_cost_change _ ->
      let applied = V.apply t.skeleton d in
      for i = 0 to num_shards t - 1 do
        ignore (shard_apply ?flush t i d)
      done;
      applied
  | D.Budget_resize b ->
      let applied = V.apply t.skeleton d in
      let shares = budget_shares t b in
      Array.iteri
        (fun i share -> ignore (shard_apply ?flush t i (D.Budget_resize share)))
        shares;
      applied

let apply t d = apply_opt t d

let flush t = Array.iter (fun (s : Engine.Node.t) -> s.flush ()) t.shards

(* Routing is inherently sequential — the skeleton's slot allocation,
   the least-loaded routing choice and the ownership tables all depend
   on every earlier delta — so the batch routes records one at a time
   and amortizes the per-shard WAL OS flushes over the batch. Bytes on
   disk (and replication frames shipped) are identical to the
   one-at-a-time path. *)
let apply_batch t ds =
  Fun.protect
    ~finally:(fun () -> flush t)
    (fun () -> List.iter (fun d -> ignore (apply_opt ~flush:false t d)) ds)

let apply_all t ds = List.iter (fun d -> ignore (apply t d)) ds

let resplit_budgets t =
  let shares = budget_shares t (V.budgets t.skeleton) in
  Array.iteri
    (fun i share -> ignore (shard_apply t i (D.Budget_resize share)))
    shares

(* Shards plan over disjoint sub-worlds, so their replans are
   independent and run concurrently on the domain pool — each shard's
   own parallel planner stages then run inline (nested pool calls
   degrade to sequential), keeping every shard's float summation order,
   and therefore every plan, bit-identical to the sequential path. *)
let replan_all t =
  ignore
    (Prelude.Pool.parallel_map
       (fun (s : Engine.Node.t) -> s.replan ())
       t.shards)

let shard_of_slot t g =
  if g < 0 || g >= Array.length t.shard_of then -1 else t.shard_of.(g)

let counts t = Array.copy t.counts
let demand t = Array.copy t.demand
let controller t i = List.hd (t.shards.(i).controllers ())

(* [restore_slot] is a join into that slot, and the shard holds the
   user exactly as the join left it (utilities already zeroed where a
   load breaks a capacity), so the refilled copy equals the view an
   unsharded engine fed the same deltas would hold. *)
let mirror t =
  let g = V.copy t.skeleton in
  let views = Array.init (num_shards t) (shard_view t) in
  for u = 0 to V.num_slots g - 1 do
    if V.is_active g u then
      V.restore_slot g u (V.user_spec views.(t.shard_of.(u)) t.local_of.(u))
  done;
  g

(* One rebalance move: evict the highest global slot on the donor and
   replay its spec into the receiver — two ordinary deltas through the
   shards' apply paths. The skeleton and the global id are untouched;
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
    let from_view = shard_view t from_shard in
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
      t.demand.(to_shard) +. slot_demand (shard_view t to_shard) l';
    true
  end

let rebalance t ~k =
  let moves = Shard_map.rebalance t.map ~counts:t.counts ~k in
  List.fold_left
    (fun n { Shard_map.from_shard; to_shard } ->
      if move_one t ~from_shard ~to_shard then n + 1 else n)
    0 moves

let utility t =
  Array.fold_left
    (fun acc (s : Engine.Node.t) -> acc +. s.utility ())
    0. t.shards

let controllers t =
  List.concat_map (fun (s : Engine.Node.t) -> s.controllers ())
    (Array.to_list t.shards)

(* Summed over the controllers serving the plan: a replicated shard
   reports through its current primary only, since follower counters
   mirror the primary's delta stream and summing over them would
   multiply every count by the replication factor. *)
let report t =
  let cs = controllers t in
  let rs = List.map C.report cs in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let replan_h = Obs.Hist.create () and recovery_h = Obs.Hist.create () in
  List.iter
    (fun c ->
      let cnt = C.counters c in
      Obs.Hist.merge_into ~into:replan_h (Engine.Counters.replan_hist cnt);
      Obs.Hist.merge_into ~into:recovery_h (Engine.Counters.recovery_hist cnt))
    cs;
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
  let mirror = mirror t in
  let mirror_p = Engine.Certify.problem_of_view mirror in
  let shard_certs =
    Array.map
      (fun (s : Engine.Node.t) ->
        let p = Engine.Certify.problem_of_view (s.view ()) in
        let cert, stats = Cert.Sparse.emit ?iters ~target:(s.utility ()) p in
        (p, cert, stats))
      t.shards
  in
  let m = V.m mirror in
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
    Cert.Checker.compose ~m ~budget:(V.budget mirror)
      ~num_streams:(V.num_streams mirror)
      ~server_cost:(V.server_cost mirror) ~lambda partials
  in
  (* Reassemble the per-user duals in the mirror's user order: global
     slot -> owning shard -> rank of its local slot among that shard's
     active slots (the order the shard's problem listed its users). *)
  let shard_rank =
    Array.init n (fun i ->
        let slots = V.active_slots (shard_view t i) in
        let tbl = Hashtbl.create 64 in
        List.iteri (fun r l -> Hashtbl.replace tbl l r) slots;
        tbl)
  in
  let mirror_slots = Array.of_list (V.active_slots mirror) in
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
let global_scratch t = C.scratch ~mode:Engine.Planner.Lazy (mirror t)

let close t = Array.iter (fun (s : Engine.Node.t) -> s.close ()) t.shards

let node t =
  { Engine.Node.apply = (fun ?flush d -> apply_opt ?flush t d);
    apply_batch = apply_batch t;
    flush = (fun () -> flush t);
    view = (fun () -> mirror t);
    controllers = (fun () -> controllers t);
    utility = (fun () -> utility t);
    replan = (fun () -> replan_all t);
    report = (fun () -> report t);
    close = (fun () -> close t) }
