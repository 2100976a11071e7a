(* Crash-atomic whole-file replacement: tmp file, fsync, rename, fsync
   of the directory so the rename itself is durable. *)

let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* Some filesystems cannot sync a directory; the rename is then
         as durable as they make it. *)
      try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

let write ?previous path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc text;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  (match previous with
  | Some prev when Sys.file_exists path -> Sys.rename path prev
  | _ -> ());
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)
