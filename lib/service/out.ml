(* Shared file-output helper: every artifact writer in the tree (the
   CLI's --out/--metrics-out plumbing, the soak driver's rolling
   snapshots and violation bundles) funnels through here so parent
   directories are created once, failures surface as one consistent
   error value, and the write is atomic: the text lands in a sibling
   temp file first and renames into place, so a reader polling the
   rolling artifact never observes a torn half-written JSON. *)

let rec ensure_dir d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let write_with ~path writer =
  (* same directory as the target so the rename cannot cross a
     filesystem boundary (rename is atomic only within one) *)
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  match
    ensure_dir (Filename.dirname path);
    let oc = open_out tmp in
    (* [close_out], not [close_out_noerr]: the last flush can fail too,
       and a short temp file must not be renamed into place *)
    (match
       writer oc;
       close_out oc;
       Sys.rename tmp path
     with
    | () -> ()
    | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e)
  with
  | () -> Ok ()
  | exception Sys_error m ->
    (* the caller names the target, so drop the temp file's name *)
    let prefix = tmp ^ ": " in
    let n = String.length prefix in
    Error (if String.starts_with ~prefix m then String.sub m n (String.length m - n) else m)

let write ~path text = write_with ~path (fun oc -> output_string oc text)
