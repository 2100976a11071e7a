type fault =
  | Drop
  | Duplicate
  | Reorder
  | Hold of int
  | Truncate
  | Partition of int
  | Reset

type stats = {
  drops : int;
  dups : int;
  reorders : int;
  truncations : int;
  holds : int;
  partitions : int;
  resets : int;
}

let no_stats =
  { drops = 0;
    dups = 0;
    reorders = 0;
    truncations = 0;
    holds = 0;
    partitions = 0;
    resets = 0 }

module Gate = struct
  type io = {
    deliver : string -> unit;
    truncate : string -> unit;
    reset : unit -> unit;
  }

  type t = {
    mutable armed : fault option;
    (* Frames delayed by Reorder/Hold, in hold order, each with the
       number of further sends it still waits out. *)
    mutable held : (int * string) list;
    (* An open partition: sends left before it heals, and the buffered
       frames in reverse order. *)
    mutable part : (int * string list) option;
    mutable st : stats;
  }

  let create () = { armed = None; held = []; part = None; st = no_stats }

  (* Frames reach the wire through the partition stage: an open
     partition swallows them (in order) instead. *)
  let route g io frame =
    match g.part with
    | Some (n, buf) -> g.part <- Some (n, frame :: buf)
    | None -> io.deliver frame

  let heal_partition g io =
    match g.part with
    | None -> false
    | Some (_, buf) ->
        g.part <- None;
        List.iter (route g io) (List.rev buf);
        buf <> []

  (* Every send ages the held frames; the ones that have been overtaken
     enough times get delivered (behind the current frame). *)
  let tick_held g io =
    let due, still =
      List.partition (fun (n, _) -> n - 1 <= 0) g.held
    in
    g.held <- List.map (fun (n, f) -> (n - 1, f)) still;
    List.iter (fun (_, f) -> route g io f) due

  let tick_partition g io =
    match g.part with
    | None -> ()
    | Some (n, buf) ->
        if n - 1 <= 0 then begin
          g.part <- None;
          List.iter (io.deliver) (List.rev buf)
        end
        else g.part <- Some (n - 1, buf)

  let send g io frame =
    let armed = g.armed in
    g.armed <- None;
    let entered_partition = ref false in
    (match armed with
    | None -> route g io frame
    | Some Drop -> g.st <- { g.st with drops = g.st.drops + 1 }
    | Some Duplicate ->
        g.st <- { g.st with dups = g.st.dups + 1 };
        route g io frame;
        route g io frame
    | Some Reorder ->
        g.st <- { g.st with reorders = g.st.reorders + 1 };
        (* +1 cancels this very send's tick: the countdown must age
           only on FURTHER sends. *)
        g.held <- g.held @ [ (1 + 1, frame) ]
    | Some (Hold n) ->
        g.st <- { g.st with holds = g.st.holds + 1 };
        g.held <- g.held @ [ (max 1 n + 1, frame) ]
    | Some Truncate ->
        g.st <- { g.st with truncations = g.st.truncations + 1 };
        io.truncate frame
    | Some (Partition n) ->
        g.st <- { g.st with partitions = g.st.partitions + 1 };
        entered_partition := true;
        ignore (heal_partition g io);
        g.part <- Some (max 1 n, [ frame ])
    | Some Reset ->
        g.st <- { g.st with resets = g.st.resets + 1 };
        io.reset ());
    tick_held g io;
    if not !entered_partition then tick_partition g io

  let on_idle g io =
    let healed = heal_partition g io in
    let held = g.held in
    g.held <- [];
    List.iter (fun (_, f) -> route g io f) held;
    healed || held <> []

  let pending g =
    List.length g.held
    + (match g.part with Some (_, buf) -> List.length buf | None -> 0)

  let arm g fault = g.armed <- Some fault

  let clear g =
    g.armed <- None;
    g.held <- [];
    g.part <- None

  let stats g = g.st
end

type link = {
  send : string -> unit;
  recv : unit -> string option;
  pending : unit -> int;
  arm : fault -> unit;
  clear : unit -> unit;
  stats : unit -> stats;
  close : unit -> unit;
}

let drain (l : link) =
  let rec go acc =
    match l.recv () with Some f -> go (f :: acc) | None -> List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* In-process queue backend                                            *)

type t = { q : string Prelude.Chan.t; gate : Gate.t }

let io t : Gate.io =
  { deliver = Prelude.Chan.push t.q;
    (* A torn frame in-process: half the characters arrive. *)
    truncate =
      (fun frame ->
        Prelude.Chan.push t.q (String.sub frame 0 (String.length frame / 2)));
    reset = (fun () -> Prelude.Chan.clear t.q) }

let create () = { q = Prelude.Chan.create (); gate = Gate.create () }

let send t frame = Gate.send t.gate (io t) frame

let recv t =
  match Prelude.Chan.pop t.q with
  | Some _ as frame -> frame
  | None ->
      if Gate.on_idle t.gate (io t) then Prelude.Chan.pop t.q else None

let pending t = Prelude.Chan.length t.q + Gate.pending t.gate

let arm t fault = Gate.arm t.gate fault

let clear t =
  Prelude.Chan.clear t.q;
  Gate.clear t.gate

let stats t = Gate.stats t.gate

let link_of t =
  { send = send t;
    recv = (fun () -> recv t);
    pending = (fun () -> pending t);
    arm = arm t;
    clear = (fun () -> clear t);
    stats = (fun () -> stats t);
    close = (fun () -> clear t) }

let queue_link () = link_of (create ())
