(* World construction walks sparse rows: Instance.create records each
   user's interest and entry rows, View.of_instance and
   Instance.restrict build from them, and the router builds its shard
   worlds through restrict. Every result must equal what the dense
   users × streams builders produced, and construction must allocate
   in proportion to users, streams and interests only. *)

open Helpers
module I = Mmd.Instance
module V = Engine.View
module C = Engine.Controller
module D = Engine.Delta
module R = Shard.Router
module SM = Shard.Shard_map

(* ---------- Random instances ---------- *)

(* Every cell is one of: no entry, positive utility, zero utility with
   a nonzero load, or positive utility with a load over the user's
   capacity (which [create] zeroes). Shapes include zero users and
   [mc = 0]. *)
let random_instance (seed, nu, ns, m, mc) =
  let rng = Prelude.Rng.create seed in
  let budget =
    Array.init m (fun _ ->
        if Prelude.Rng.int rng 4 = 0 then infinity
        else Prelude.Rng.uniform rng ~lo:1. ~hi:10.)
  in
  let server_cost =
    Array.init ns (fun _ ->
        Array.map
          (fun b -> Prelude.Rng.float rng (if b = infinity then 5. else b))
          budget)
  in
  let capacity =
    Array.init nu (fun _ ->
        Array.init mc (fun _ -> Prelude.Rng.uniform rng ~lo:1. ~hi:4.))
  in
  let utility = Array.make_matrix nu ns 0. in
  let load =
    Array.init nu (fun u ->
        Array.init ns (fun s ->
            match Prelude.Rng.int rng 5 with
            | 0 | 1 -> Array.make mc 0.
            | 2 ->
                utility.(u).(s) <- Prelude.Rng.uniform rng ~lo:0.5 ~hi:5.;
                Array.init mc (fun j -> Prelude.Rng.float rng capacity.(u).(j))
            | 3 -> Array.init mc (fun _ -> Prelude.Rng.uniform rng ~lo:0.1 ~hi:2.)
            | _ ->
                utility.(u).(s) <- Prelude.Rng.uniform rng ~lo:0.5 ~hi:5.;
                Array.init mc (fun j ->
                    if j = 0 then capacity.(u).(j) +. 1.
                    else Prelude.Rng.float rng capacity.(u).(j))))
  in
  let utility_cap =
    Array.init nu (fun _ ->
        if Prelude.Rng.bool rng then infinity
        else Prelude.Rng.uniform rng ~lo:1. ~hi:8.)
  in
  I.create ~name:(Printf.sprintf "rand-%d" seed) ~mc ~server_cost ~budget
    ~load ~capacity ~utility ~utility_cap ()

let gen_shape =
  QCheck2.Gen.(
    int_range 1 100_000 >>= fun seed ->
    int_range 0 7 >>= fun nu ->
    int_range 1 12 >>= fun ns ->
    int_range 1 3 >>= fun m ->
    int_range 0 3 >|= fun mc -> (seed, nu, ns, m, mc))

let bits = Int64.bits_of_float
let same_float a b = bits a = bits b
let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 same_float a b

(* ---------- (a) of_instance = catalog view + restored rows ---------- *)

(* The join spec of user [u] as the dense layout exposes it: every
   stream with positive utility or a nonzero load. *)
let dense_spec inst u =
  let mc = I.mc inst in
  { D.utility_cap = I.utility_cap inst u;
    capacity = Array.init mc (I.capacity inst u);
    interests =
      List.filter_map
        (fun s ->
          let loads = Array.init mc (I.load inst u s) in
          let w = I.utility inst u s in
          if w > 0. || Array.exists (fun k -> k <> 0.) loads then
            Some (s, w, loads)
          else None)
        (List.init (I.num_streams inst) Fun.id) }

let catalog_view inst =
  let nu = I.num_users inst in
  let catalog =
    I.create ~name:(I.name inst) ~mc:(I.mc inst)
      ~server_cost:
        (Array.init (I.num_streams inst) (fun s ->
             Array.init (I.m inst) (I.server_cost inst s)))
      ~budget:(Array.init (I.m inst) (I.budget inst))
      ~load:[||] ~capacity:[||] ~utility:[||] ~utility_cap:[||] ()
  in
  let v = V.of_instance catalog in
  V.ensure_slots_raw v nu;
  for u = 0 to nu - 1 do
    V.restore_slot v u (dense_spec inst u)
  done;
  v

let same_spec (a : D.user_spec) (b : D.user_spec) =
  same_float a.utility_cap b.utility_cap
  && same_floats a.capacity b.capacity
  && List.length a.interests = List.length b.interests
  && List.for_all2
       (fun (s, w, l) (s', w', l') -> s = s' && same_float w w' && same_floats l l')
       a.interests b.interests

let views_equal a b =
  let ns = V.num_streams a and m = V.m a and mc = V.mc a in
  let slots = List.init (V.num_slots a) Fun.id in
  V.num_streams b = ns && V.m b = m && V.mc b = mc
  && V.num_slots b = V.num_slots a
  && V.active_slots a = V.active_slots b
  && V.name a = V.name b
  && same_floats (V.budgets a) (V.budgets b)
  && List.for_all (fun s -> same_floats (V.cost_row a s) (V.cost_row b s))
       (List.init ns Fun.id)
  && List.for_all
       (fun u ->
         same_spec (V.user_spec a u) (V.user_spec b u)
         && V.interests a u = V.interests b u
         && same_float (V.utility_cap a u) (V.utility_cap b u)
         && List.for_all
              (fun j -> same_float (V.capacity a u j) (V.capacity b u j))
              (List.init mc Fun.id))
       slots
  && List.for_all
       (fun s ->
         V.interested a s = V.interested b s
         && List.for_all
              (fun u ->
                same_float (V.utility a u s) (V.utility b u s)
                && List.for_all
                     (fun j -> same_float (V.load a u s j) (V.load b u s j))
                     (List.init mc Fun.id))
              (V.interested a s))
       (List.init ns Fun.id)

let qcheck_view_of_rows =
  qtest ~count:200 "of_instance equals a catalog view with every row restored"
    gen_shape
    (fun shape ->
      let inst = random_instance shape in
      views_equal (V.of_instance inst) (catalog_view inst))

(* ---------- (b) the transposed rows equal dense scans ---------- *)

let scan n keep = List.filter keep (List.init n Fun.id) |> Array.of_list

let qcheck_rows_equal_scans =
  qtest ~count:200 "sparse rows and their transpose equal dense scans" gen_shape
    (fun shape ->
      let inst = random_instance shape in
      let ns = I.num_streams inst and nu = I.num_users inst in
      let mc = I.mc inst in
      List.for_all
        (fun s ->
          let users = scan nu (fun u -> I.utility inst u s > 0.) in
          I.interested_users inst s = users
          && same_float (I.stream_total_utility inst s)
               (Array.fold_left (fun acc u -> acc +. I.utility inst u s) 0. users))
        (List.init ns Fun.id)
      && List.for_all
           (fun u ->
             I.interesting_streams inst u
             = scan ns (fun s -> I.utility inst u s > 0.)
             && I.entry_streams inst u
                = scan ns (fun s ->
                      I.utility inst u s > 0.
                      || List.exists
                           (fun j -> I.load inst u s j <> 0.)
                           (List.init mc Fun.id)))
           (List.init nu Fun.id))

(* ---------- (c) restrict = the dense shard builder ---------- *)

(* The router's shard builder before [restrict]: a dense copy of every
   (user, stream) cell of the chosen users, costs clamped to the share,
   revalidated by [create]. Kept as the reference. *)
let dense_sub_instance ~name inst ~users ~share =
  let ns = I.num_streams inst and m = I.m inst and mc = I.mc inst in
  let nu = Array.length users in
  I.create ~name ~mc
    ~server_cost:
      (Array.init ns (fun s ->
           Array.init m (fun i -> Float.min (I.server_cost inst s i) share.(i))))
    ~budget:(Array.copy share)
    ~load:
      (Array.init nu (fun v ->
           Array.init ns (fun s ->
               Array.init mc (fun j -> I.load inst users.(v) s j))))
    ~capacity:
      (Array.init nu (fun v ->
           Array.init mc (fun j -> I.capacity inst users.(v) j)))
    ~utility:
      (Array.init nu (fun v ->
           Array.init ns (fun s -> I.utility inst users.(v) s)))
    ~utility_cap:(Array.init nu (fun v -> I.utility_cap inst users.(v)))
    ()

let instances_equal a b =
  let ns = I.num_streams a and nu = I.num_users a in
  let m = I.m a and mc = I.mc a in
  let streams = List.init ns Fun.id and users = List.init nu Fun.id in
  let all n f = List.for_all f (List.init n Fun.id) in
  I.name a = I.name b && I.num_streams b = ns && I.num_users b = nu
  && I.m b = m && I.mc b = mc && I.size a = I.size b
  && all m (fun i ->
         same_float (I.budget a i) (I.budget b i)
         && same_float (I.max_server_cost a i) (I.max_server_cost b i))
  && List.for_all
       (fun s ->
         all m (fun i -> same_float (I.server_cost a s i) (I.server_cost b s i))
         && I.interested_users a s = I.interested_users b s
         && same_float (I.stream_total_utility a s) (I.stream_total_utility b s))
       streams
  && List.for_all
       (fun u ->
         same_float (I.utility_cap a u) (I.utility_cap b u)
         && all mc (fun j -> same_float (I.capacity a u j) (I.capacity b u j))
         && I.interesting_streams a u = I.interesting_streams b u
         && I.entry_streams a u = I.entry_streams b u
         && List.for_all
              (fun s ->
                same_float (I.utility a u s) (I.utility b u s)
                && all mc (fun j -> same_float (I.load a u s j) (I.load b u s j)))
              streams)
       users

let qcheck_restrict_equals_dense =
  qtest ~count:200 "restrict equals the dense shard builder"
    QCheck2.Gen.(pair gen_shape (int_range 0 1_000_000))
    (fun (shape, pick) ->
      let inst = random_instance shape in
      let rng = Prelude.Rng.create pick in
      (* Any ascending subset, the empty one included; shares below
         some costs exercise the clamp. *)
      let users =
        scan (I.num_users inst) (fun _ -> Prelude.Rng.int rng 3 > 0)
      in
      let share =
        Array.init (I.m inst) (fun i ->
            match Prelude.Rng.int rng 3 with
            | 0 -> I.budget inst i
            | 1 -> 0.
            | _ -> Prelude.Rng.float rng 5.)
      in
      instances_equal
        (I.restrict inst ~users ~budget:share ~name:"sub")
        (dense_sub_instance ~name:"sub" inst ~users ~share))

let test_restrict_rejects () =
  let inst = random_instance (3, 4, 5, 2, 1) in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let budget = [| 1.; 1. |] in
  check_bool "descending users" true
    (raises (fun () -> I.restrict inst ~users:[| 2; 1 |] ~budget));
  check_bool "repeated user" true
    (raises (fun () -> I.restrict inst ~users:[| 1; 1 |] ~budget));
  check_bool "user out of range" true
    (raises (fun () -> I.restrict inst ~users:[| 4 |] ~budget));
  check_bool "budget arity" true
    (raises (fun () -> I.restrict inst ~users:[||] ~budget:[| 1. |]));
  check_bool "negative budget" true
    (raises (fun () -> I.restrict inst ~users:[||] ~budget:[| 1.; -1. |]))

(* ---------- (d) router shards = shards built densely ---------- *)

let with_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vdmc-%s-%d" name (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let same_served a b =
  Mmd.Io.assignment_to_string (C.plan a) = Mmd.Io.assignment_to_string (C.plan b)
  && same_float (C.utility a) (C.utility b)

(* The state a controller would save, less its latency histograms and
   the header that checksums them. *)
let saved_state c =
  String.split_on_char '\n' (Engine.Snapshot.save c)
  |> List.filter (fun l ->
         not
           (String.starts_with ~prefix:"hist " l
           || String.starts_with ~prefix:"F " l))

(* Each shard of an [n]-shard router is compared with a controller over
   the dense reference sub-instance: at creation, and after the shard's
   own delta stream (read back from its WAL) replays into the
   reference. *)
let shards_equal_dense ~seed inst n =
  let tags = Array.init n (fun i -> Printf.sprintf "rack%d" i) in
  let map = SM.create ~seed ~tags () in
  let assign = SM.plan map ~users:(I.num_users inst) in
  let share =
    Array.init (I.m inst) (fun i -> I.budget inst i /. float_of_int n)
  in
  let reference i =
    C.create ~policy:(C.Every 8)
      (dense_sub_instance
         ~name:(Printf.sprintf "%s/shard-%d" (I.name inst) i)
         inst ~share
         ~users:(scan (I.num_users inst) (fun u -> assign.(u) = i)))
  in
  let log =
    Engine.Churn.generate ~rng:(Prelude.Rng.create seed) (V.of_instance inst)
      { Engine.Churn.default with deltas = 60 }
  in
  with_dir "construction" (fun dir ->
      let router = R.create ~policy:(C.Every 8) ~wal_dir:dir ~map inst in
      let refs = Array.init n reference in
      let at_start =
        List.for_all
          (fun i -> same_served (R.controller router i) refs.(i))
          (List.init n Fun.id)
      in
      R.apply_all router log;
      R.close router;
      at_start
      && List.for_all
           (fun i ->
             let path = Filename.concat dir (Printf.sprintf "shard-%d.wal" i) in
             match Engine.Wal.recover_file path with
             | Error e -> failwith e
             | Ok r ->
                 List.iter
                   (fun (_, d) -> ignore (C.apply refs.(i) d))
                   r.Engine.Wal.records;
                 C.replan refs.(i);
                 C.replan (R.controller router i);
                 same_served (R.controller router i) refs.(i)
                 && saved_state (R.controller router i) = saved_state refs.(i))
           (List.init n Fun.id))

let qcheck_router_shards_equal_dense =
  qtest ~count:20
    "router shards built by restrict serve the dense shards' plans (1, 2, 4 shards)"
    gen_shape
    (fun ((seed, _, _, _, _) as shape) ->
      let inst = random_instance shape in
      List.for_all (shards_equal_dense ~seed inst) [ 1; 2; 4 ])

(* ---------- Construction allocates O(users + streams + interests) ---------- *)

(* 200 users × 20,000 streams, 3 interests per user. The dense input
   shares one all-zero load row, so only the utility matrix costs
   users × streams to hold. *)
let test_construction_allocates_sparsely () =
  let nu = 200 and ns = 20_000 and per_user = 3 in
  let rng = Prelude.Rng.create 7 in
  let utility = Array.make_matrix nu ns 0. in
  for u = 0 to nu - 1 do
    for _ = 1 to per_user do
      utility.(u).(Prelude.Rng.int rng ns) <- 1. +. Prelude.Rng.float rng 4.
    done
  done;
  let zero_row = Array.make ns [| 0. |] in
  let inst =
    I.create ~name:"sparse" ~server_cost:(Array.make_matrix ns 1 1.)
      ~budget:[| 50. |] ~load:(Array.make nu zero_row)
      ~capacity:(Array.make_matrix nu 1 10.) ~utility
      ~utility_cap:(Array.make nu infinity) ()
  in
  let interests =
    Array.fold_left ( + ) 0
      (Array.init nu (fun u -> Array.length (I.interesting_streams inst u)))
  in
  let bound = 1024. *. float_of_int (nu + ns + interests) in
  let allocated f =
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    Gc.allocated_bytes () -. before
  in
  let view = allocated (fun () -> V.of_instance inst) in
  let users = Array.init (nu / 2) (fun v -> 2 * v) in
  let sub = allocated (fun () -> I.restrict inst ~users ~budget:[| 0.5 |]) in
  check_bool
    (Printf.sprintf "of_instance allocates %.1f MB <= %.1f MB" (view /. 1e6)
       (bound /. 1e6))
    true (view <= bound);
  check_bool
    (Printf.sprintf "restrict allocates %.1f MB <= %.1f MB" (sub /. 1e6)
       (bound /. 1e6))
    true (sub <= bound)

let suite =
  [ qcheck_view_of_rows;
    qcheck_rows_equal_scans;
    qcheck_restrict_equals_dense;
    Alcotest.test_case "restrict rejects bad users and budgets" `Quick
      test_restrict_rejects;
    qcheck_router_shards_equal_dense;
    Alcotest.test_case "construction allocates in O(users + streams + interests)"
      `Quick test_construction_allocates_sparsely ]
