(* Segmented WAL: a directory of ordinary WAL files, each capped at a
   fixed record count, named by the global sequence number of their
   first record:

     segment-0000000001.wal   records 1 .. k
     segment-0000000k+1.wal   records k+1 .. 2k
     ...

   Sequence numbers are global and continuous across segments, so the
   concatenated recovery is exactly the recovery of one monolithic
   WAL. The payoff over a single file is compaction: once a checkpoint
   covers every record of a sealed segment, the segment is dead weight
   for recovery and [compact] deletes it — the log stops growing
   without bound while the tail stays replayable. *)

let segment_prefix = "segment-"
let segment_suffix = ".wal"

let segment_name first_seq =
  Printf.sprintf "%s%010d%s" segment_prefix first_seq segment_suffix

let segment_first_seq name =
  if
    String.length name
    > String.length segment_prefix + String.length segment_suffix
    && String.sub name 0 (String.length segment_prefix) = segment_prefix
    && Filename.check_suffix name segment_suffix
  then
    int_of_string_opt
      (String.sub name
         (String.length segment_prefix)
         (String.length name
         - String.length segment_prefix
         - String.length segment_suffix))
  else None

(* Segment files of [dir], as (first_seq, absolute path), ascending. *)
let segments dir =
  match Sys.readdir dir with
  | names ->
      Array.to_list names
      |> List.filter_map (fun n ->
             match segment_first_seq n with
             | Some seq -> Some (seq, Filename.concat dir n)
             | None -> None)
      |> List.sort compare
  | exception Sys_error _ -> []

type t = {
  dir : string;
  segment_records : int;
  mutable writer : Wal.writer option;
  mutable seg_count : int;  (* records in the open segment *)
  mutable next_seq : int;
}

let default_segment_records = 1024

let open_dir ?(segment_records = default_segment_records) dir =
  if segment_records < 1 then
    invalid_arg "Wal_store.open_dir: segment_records < 1";
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (* Resume after the last record already on disk (if any). *)
  let next_seq, seg_count =
    match List.rev (segments dir) with
    | [] -> (1, 0)
    | (first, path) :: _ -> (
        match Wal.recover_file ~first_seq:first path with
        | Ok r when r.Wal.last_seq >= first ->
            (r.Wal.last_seq + 1, r.Wal.last_seq - first + 1)
        | _ -> (first, 0))
  in
  { dir; segment_records; writer = None; seg_count; next_seq }

let roll t =
  (match t.writer with
  | Some w -> Wal.close w
  | None -> ());
  let path = Filename.concat t.dir (segment_name t.next_seq) in
  t.writer <- Some (Wal.append_file ~next_seq:t.next_seq path);
  t.seg_count <- 0

let writer_for_append t =
  (match t.writer with
  | None ->
      (* Reopen the partial tail segment if there is room, else roll. *)
      if t.seg_count > 0 && t.seg_count < t.segment_records then begin
        match List.rev (segments t.dir) with
        | (_, path) :: _ ->
            t.writer <- Some (Wal.append_file ~next_seq:t.next_seq path)
        | [] -> roll t
      end
      else roll t
  | Some _ -> if t.seg_count >= t.segment_records then roll t);
  Option.get t.writer

let append_tee ?flush t delta =
  let w = writer_for_append t in
  let res = Wal.append_tee ?flush w delta in
  t.seg_count <- t.seg_count + 1;
  t.next_seq <- t.next_seq + 1;
  res

let append t delta = fst (append_tee t delta)

let flush t = match t.writer with Some w -> Wal.flush_writer w | None -> ()

let close t =
  (match t.writer with Some w -> Wal.close w | None -> ());
  t.writer <- None

let next_seq t = t.next_seq

type recovery = {
  records : (int * Delta.t) list;
  quarantined : (string * Wal.quarantined) list;
  first_seq : int;  (* lowest sequence available (1 unless compacted) *)
  last_seq : int;
  torn_tail : bool;
  segments : int;
}

let recover_dir dir =
  let segs = segments dir in
  match segs with
  | [] -> Error (Printf.sprintf "Wal_store.recover: no segments in %s" dir)
  | (first_avail, _) :: _ ->
      let records = ref [] and quarantined = ref [] in
      let last = ref 0 and torn = ref false in
      let nsegs = List.length segs in
      let result =
        List.fold_left
          (fun acc (first, path) ->
            match acc with
            | Error _ as e -> e
            | Ok i -> (
                match Wal.recover_file ~first_seq:first path with
                | Error msg ->
                    Error
                      (Printf.sprintf "%s: %s" (Filename.basename path) msg)
                | Ok r ->
                    let base = Filename.basename path in
                    List.iter
                      (fun ((seq, _) as rec_) ->
                        (* Cross-segment continuity: a record that does
                           not advance the global sequence is a replayed
                           or misfiled segment, quarantined exactly like
                           an in-file regression. *)
                        if seq <= !last then
                          quarantined :=
                            ( base,
                              { Wal.offset = 0;
                                reason =
                                  Printf.sprintf
                                    "cross-segment sequence regression (%d \
                                     after %d)"
                                    seq !last } )
                            :: !quarantined
                        else begin
                          records := rec_ :: !records;
                          last := seq
                        end)
                      r.Wal.records;
                    List.iter
                      (fun q -> quarantined := (base, q) :: !quarantined)
                      r.Wal.quarantined;
                    (* A torn tail mid-directory would mean a segment
                       sealed short; only the last segment's torn tail
                       is the ordinary crash signature. *)
                    if r.Wal.torn_tail && i = nsegs - 1 then torn := true;
                    Ok (i + 1)))
          (Ok 0) segs
      in
      (match result with
      | Error msg -> Error msg
      | Ok _ ->
          Ok
            { records = List.rev !records;
              quarantined = List.rev !quarantined;
              first_seq = first_avail;
              last_seq = !last;
              torn_tail = !torn;
              segments = nsegs })

(* Delete sealed segments every record of which has sequence <= covered.
   A segment is fully covered exactly when the next segment starts at
   or below covered+1; the open (last) segment is never deleted. *)
let compact t ~covered =
  let segs = segments t.dir in
  let rec go deleted = function
    | (_, path) :: ((next_first, _) :: _ as rest)
      when next_first <= covered + 1 ->
        Sys.remove path;
        go (deleted + 1) rest
    | _ -> deleted
  in
  go 0 segs

let dir t = t.dir
