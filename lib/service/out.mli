(** Atomic artifact writing, shared by the CLI's [--out] plumbing and
    the soak driver's rolling metrics snapshots and violation bundles.

    [write_with ~path writer] creates missing parent directories, runs
    [writer] on a temp file in the target's directory and renames it
    into place — so a reader polling a rolling artifact (the soak
    farm's metrics JSON) always sees either the previous complete
    snapshot or the new one, never a torn write.  If [writer] raises or
    the rename fails, the temp file is removed and the target is left
    as it was; [writer]'s exception propagates.  I/O failures come back
    as [Error reason] rather than a raw [Sys_error]; the reason names
    no temp file, so the caller names the target. *)

val write_with : path:string -> (out_channel -> unit) -> (unit, string) result

val write : path:string -> string -> (unit, string) result
(** [write ~path text] is {!write_with} writing [text]. *)
