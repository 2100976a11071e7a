(* In-memory span recorder for the traced pass.

   Spans are opened from the benchmark's own code around each call into
   a layer: one root span per delta, children around the layer calls it
   makes (and, through wrapped transport links, around the sends and
   receives those calls make). Nothing is written while the pass runs;
   {!write_jsonl} dumps the spans afterwards. A span's self time is its
   duration minus the time its children cover. Children never overlap
   (one thread), so that is the sum of the direct children's
   durations. *)

type t = {
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;  (** -1 for a root *)
  mutable trace : int array;  (** the delta a span belongs to *)
  mutable start : float array;
  mutable stop : float array;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable open_ : int;  (** innermost open span, -1 when none *)
  mutable cur_trace : int;
}

let create () =
  { n = 0;
    name = Array.make 1024 0;
    parent = Array.make 1024 0;
    trace = Array.make 1024 0;
    start = Array.make 1024 0.;
    stop = Array.make 1024 0.;
    names = Hashtbl.create 32;
    name_of = [||];
    open_ = -1;
    cur_trace = -1 }

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
      let i = Array.length t.name_of in
      Hashtbl.replace t.names s i;
      t.name_of <- Array.append t.name_of [| s |];
      i

let grow t =
  let cap = 2 * Array.length t.name in
  let g a z =
    let a' = Array.make cap z in
    Array.blit a 0 a' 0 t.n;
    a'
  in
  t.name <- g t.name 0;
  t.parent <- g t.parent 0;
  t.trace <- g t.trace 0;
  t.start <- g t.start 0.;
  t.stop <- g t.stop 0.

(* Monotonic seconds, read from a nanosecond clock: latencies of tens of
   microseconds need more than the microsecond wall clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let enter t name =
  if t.n = Array.length t.name then grow t;
  let id = t.n in
  t.n <- id + 1;
  t.name.(id) <- intern t name;
  t.parent.(id) <- t.open_;
  t.trace.(id) <- t.cur_trace;
  t.open_ <- id;
  t.start.(id) <- now ();
  id

let leave t id =
  t.stop.(id) <- now ();
  t.open_ <- t.parent.(id)

let with_ t name f =
  let id = enter t name in
  match f () with
  | v ->
      leave t id;
      v
  | exception e ->
      leave t id;
      raise e

(* Open a delta's root span; [trace] identifies the delta. *)
let root t ~trace name f =
  t.cur_trace <- trace;
  with_ t name f

(* Rename a closed span: the layer a call belongs to (a replan, an ack
   round) is known only once the call has returned. *)
let rename t id name = t.name.(id) <- intern t name

let duration t id = t.stop.(id) -. t.start.(id)

let self_times t =
  let self = Array.init t.n (duration t) in
  for id = 0 to t.n - 1 do
    let p = t.parent.(id) in
    if p >= 0 then self.(p) <- self.(p) -. duration t id
  done;
  self

type layer = {
  calls : int;
  busy_s : float;  (** summed self time *)
  durations : float array;  (** whole-span durations, sorted *)
}

(* Per span name: call count, busy (self) time and sorted durations. *)
let layers t =
  let self = self_times t in
  let k = Array.length t.name_of in
  let busy = Array.make k 0. and durs = Array.make k [] in
  for id = t.n - 1 downto 0 do
    let nm = t.name.(id) in
    busy.(nm) <- busy.(nm) +. self.(id);
    durs.(nm) <- duration t id :: durs.(nm)
  done;
  let tbl = Hashtbl.create k in
  Array.iteri
    (fun i name ->
      let d = Array.of_list durs.(i) in
      Array.sort compare d;
      Hashtbl.replace tbl name { calls = Array.length d; busy_s = busy.(i); durations = d })
    t.name_of;
  tbl

(* Share of root-span time that no child span covers. *)
let unattributed_share t =
  let self = self_times t in
  let un = ref 0. and total = ref 0. in
  for id = 0 to t.n - 1 do
    if t.parent.(id) < 0 then begin
      un := !un +. self.(id);
      total := !total +. duration t id
    end
  done;
  if !total > 0. then !un /. !total else 0.

let write_jsonl t path =
  let self = self_times t in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let t0 = if t.n > 0 then t.start.(0) else 0. in
      for id = 0 to t.n - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"trace\":%d,\"parent\":%d,\"name\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f,\"self_us\":%.3f}\n"
          id t.trace.(id) t.parent.(id) t.name_of.(t.name.(id))
          (1e6 *. (t.start.(id) -. t0))
          (1e6 *. duration t id)
          (1e6 *. self.(id))
      done)
