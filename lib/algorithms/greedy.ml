module I = Mmd.Instance
module B = Prelude.Bitset

type t = {
  assignment : Mmd.Assignment.t;
  last_stream : int option array;
  first_blocked : int option;
  picks : int list;
}

let effective_cap inst u =
  if I.mc inst >= 1 then Float.min (I.utility_cap inst u) (I.capacity inst u 0)
  else I.utility_cap inst u

(* Mutable greedy state. [resid.(u)] is the fractional residual utility
   of user u; [stream_resid.(s)] is the fractional residual utility
   w̄(S) of candidate stream s, maintained incrementally. [assigned] is
   a flat user-major bitset (bit [u * ns + s]): one bit per user-stream
   pair keeps the whole membership table cache-resident where a
   [bool array array] costs a word per pair. *)
type state = {
  inst : I.t;
  ns : int;
  resid : float array;
  stream_resid : float array;
  candidate : bool array;        (* still in C *)
  assigned : B.t;                (* user × stream, flat *)
  last : int option array;
  mutable budget_left : float;
  mutable picks_rev : int list;
  mutable first_blocked : int option;
}

let init inst =
  let ns = I.num_streams inst and nu = I.num_users inst in
  let resid = Array.init nu (fun u -> Float.max 0. (effective_cap inst u)) in
  (* Each per-stream sum is an independent pure fold over that stream's
     interested users, so fanning them across the pool preserves the
     sequential result bit for bit. *)
  let stream_resid =
    Prelude.Pool.float_init ~chunk:128 ns (fun s ->
        Array.fold_left
          (fun acc u -> acc +. Float.min (I.utility inst u s) resid.(u))
          0. (I.interested_users inst s))
  in
  { inst;
    ns;
    resid;
    stream_resid;
    candidate = Array.make ns true;
    assigned = B.create (nu * ns);
    last = Array.make nu None;
    budget_left = I.budget inst 0;
    picks_rev = [];
    first_blocked = None }

(* Assign stream s to every user with positive residual utility for it,
   updating residuals of users and of the remaining candidate streams. *)
let assign st s =
  let inst = st.inst in
  st.candidate.(s) <- false;
  st.stream_resid.(s) <- 0.;
  st.budget_left <- st.budget_left -. I.server_cost inst s 0;
  st.picks_rev <- s :: st.picks_rev;
  Array.iter
    (fun u ->
      (* [base + s] indices stay inside [0, nu * ns) by construction
         (u and s come from the instance), so the unchecked accessors
         are safe here and keep the per-pair cost at a mask and a
         shift. *)
      let base = u * st.ns in
      if st.resid.(u) > 0. && not (B.unsafe_get st.assigned (base + s))
      then begin
        B.unsafe_set st.assigned (base + s);
        st.last.(u) <- Some s;
        let old_resid = st.resid.(u) in
        let new_resid = Float.max 0. (old_resid -. I.utility inst u s) in
        st.resid.(u) <- new_resid;
        Array.iter
          (fun s' ->
            if st.candidate.(s') && not (B.unsafe_get st.assigned (base + s'))
            then begin
              let w = I.utility inst u s' in
              let updated =
                st.stream_resid.(s')
                +. Float.min w new_resid -. Float.min w old_resid
              in
              (* The incremental sum drifts by ~1e-16 per update; when
                 the true residual is 0 that drift would make the
                 greedy "pick" a stream that serves nobody. Collapse
                 anything below the noise floor to exactly 0. *)
              let noise =
                Prelude.Float_ops.default_eps
                *. (1. +. I.stream_total_utility inst s')
              in
              st.stream_resid.(s') <-
                (if Float.abs updated <= noise then 0. else updated)
            end)
          (I.interesting_streams inst u)
      end)
    (I.interested_users inst s)

(* The candidate first in [Prelude.Pick]'s order of residual
   w̄(s) per cost c(s), the lower stream on a tie. *)
let best_candidate st =
  let inst = st.inst in
  let best = ref (-1) in
  let best_w = ref 0. and best_c = ref 0. in
  for s = 0 to I.num_streams inst - 1 do
    if st.candidate.(s) then begin
      let w = st.stream_resid.(s) and c = I.server_cost inst s 0 in
      if !best < 0 || Prelude.Pick.better w c !best_w !best_c then begin
        best := s;
        best_w := w;
        best_c := c
      end
    end
  done;
  if !best < 0 then None else Some (!best, !best_w)

(* Selection rounds = candidate-scan iterations of the marginal loop;
   tallied locally and flushed once per run so the scan itself stays
   allocation- and atomic-free. Eager, not [lazy]: runs inside pool
   tasks would force them from several domains at once, which raises. *)
let m_rounds = Obs.Metrics.counter "greedy_select_rounds_total"
let m_picks = Obs.Metrics.counter "greedy_picks_total"

let run_impl ~initial_streams inst =
  if I.m inst <> 1 then invalid_arg "Greedy.run: requires m = 1";
  if I.mc inst > 1 then invalid_arg "Greedy.run: requires mc <= 1";
  let st = init inst in
  List.iter
    (fun s ->
      if s < 0 || s >= I.num_streams inst then
        invalid_arg "Greedy.run: initial stream out of range";
      if st.candidate.(s) then begin
        if not (Prelude.Float_ops.leq (I.server_cost inst s 0) st.budget_left)
        then invalid_arg "Greedy.run: initial streams exceed the budget";
        assign st s
      end)
    initial_streams;
  let rounds = ref 0 in
  let rec loop () =
    incr rounds;
    match best_candidate st with
    | None -> ()
    | Some (_, w) when w <= 0. -> () (* nothing left to gain *)
    | Some (s, _) ->
        if Prelude.Float_ops.leq (I.server_cost inst s 0) st.budget_left then
          assign st s
        else begin
          if st.first_blocked = None then st.first_blocked <- Some s;
          st.candidate.(s) <- false
        end;
        loop ()
  in
  loop ();
  Obs.Metrics.inc ~n:!rounds m_rounds;
  Obs.Metrics.inc
    ~n:(List.length st.picks_rev)
    m_picks;
  { assignment =
      Mmd.Assignment.of_bitset ~num_users:(I.num_users inst) ~num_streams:st.ns
        st.assigned;
    last_stream = st.last;
    first_blocked = st.first_blocked;
    picks = List.rev st.picks_rev }

let run ?(initial_streams = []) inst =
  Obs.Span.with_ ~name:"greedy.run" (fun () -> run_impl ~initial_streams inst)
