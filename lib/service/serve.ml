let emit oc (r : Engine.response) =
  output_string oc (Codec.response_to_line r);
  output_char oc '\n'

(* Decode input line [lineno] (1-based).  A line that fails is answered
   by an error row echoing the request's own id and client whenever the
   line is a JSON object, so clients can match errors up; only a line
   that is not a JSON object falls back to its line number. *)
let decode ~lineno line =
  let default_id = string_of_int lineno in
  let error (id, client) e = Error { Engine.id; client; reply = Engine.Error e } in
  match Json.of_string line with
  | Error e -> error (default_id, "anon") e
  | Ok j -> (
    match Codec.request_of_json ~default_id j with
    | Ok req -> Ok req
    | Error e -> error (Codec.envelope ~default_id j) e)

(* ---------- streaming mode ---------- *)

(* Input lines, taken from the channel a whole chunk at a time.  A
   chunk as large as the channel's buffer empties it, so once no full
   line is left here, bytes can only be waiting on the descriptor, and
   [would_block] can tell whether the next line is at hand or the
   client has not sent it yet. *)
type reader = {
  ic : in_channel;
  chunk : Bytes.t;
  mutable rest : string;
  mutable pos : int;
  mutable eof : bool;
}

let reader ic = { ic; chunk = Bytes.create 65536; rest = ""; pos = 0; eof = false }

(* The next line without its newline, as [input_line] reads it, or
   [None] at end of input. *)
let rec next_line r =
  let len = String.length r.rest in
  match String.index_from_opt r.rest r.pos '\n' with
  | Some i ->
    let line = String.sub r.rest r.pos (i - r.pos) in
    r.pos <- i + 1;
    Some line
  | None when r.eof ->
    if r.pos = len then None
    else begin
      let line = String.sub r.rest r.pos (len - r.pos) in
      r.pos <- len;
      Some line
    end
  | None ->
    let n = input r.ic r.chunk 0 (Bytes.length r.chunk) in
    if n = 0 then r.eof <- true
    else begin
      r.rest <- String.sub r.rest r.pos (len - r.pos) ^ Bytes.sub_string r.chunk 0 n;
      r.pos <- 0
    end;
    next_line r

(* Whether the next line would wait on the client: none is buffered,
   input has not ended, and no byte waits on the descriptor.  A regular
   file is always ready, so file input never waits. *)
let would_block r =
  (not r.eof)
  && (not (String.contains_from r.rest r.pos '\n'))
  &&
  match Unix.select [ Unix.descr_of_in_channel r.ic ] [] [] 0.0 with
  | [], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

(* Shutdown drain semantics: whichever bound fires first (EOF,
   [max_requests] accepted request lines, or [duration_s] of wall
   clock), the loop stops *reading* but never stops *answering* —
   every request already accepted is drained to a response before the
   stream closes, and later lines are left unanswered.  So a bounded
   serve is a prefix of the unbounded one: same responses, same order,
   truncated input.  Pending work is also drained before a read that
   would block, so no answer waits on the client's next line. *)
let serve ?(drain_every = 16) ?max_requests ?duration_s engine ic oc =
  let input = reader ic in
  let lineno = ref 0 in
  let accepted = ref 0 in
  let clock = Clock.create () in
  let t0 = Clock.now_us clock in
  let hit_bound () =
    (match max_requests with Some m -> !accepted >= m | None -> false)
    || match duration_s with
       | Some d -> float_of_int (Clock.elapsed_us clock ~since:t0) /. 1e6 >= d
       | None -> false
  in
  let drain () =
    List.iter (emit oc) (Engine.drain engine);
    flush oc
  in
  let rec loop () =
    if not (hit_bound ()) then begin
      if Engine.pending engine > 0 && would_block input then drain ();
      match next_line input with
      | None -> ()
      | Some line ->
        incr lineno;
        if String.trim line <> "" then begin
          incr accepted;
          (match decode ~lineno:!lineno line with
          | Error row -> emit oc row
          | Ok req -> (
            match Engine.submit engine req with
            | Some resp -> emit oc resp
            | None -> ()));
          flush oc;
          if Engine.pending engine >= drain_every then drain ()
        end;
        loop ()
    end
  in
  loop ();
  drain ()

(* ---------- slot bookkeeping ---------- *)

(* Requests answered by a later drain are matched back to their input
   slot by id.  Ids are caller-chosen and may repeat, so each id keys a
   FIFO of slot indices; drain order within an id is submission order.
   The map also remembers each slot's id so unanswered slots can be
   surfaced instead of silently vanishing. *)
module Slot_map = struct
  type t = (string, int Queue.t) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let expect t ~id ~slot =
    let q =
      match Hashtbl.find_opt t id with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add t id q;
        q
    in
    Queue.push slot q

  let resolve t ~id = Option.bind (Hashtbl.find_opt t id) Queue.take_opt

  (* unanswered (id, slot) pairs, in slot order *)
  let leftovers t =
    Hashtbl.fold (fun id q acc -> Queue.fold (fun acc slot -> (id, slot) :: acc) acc q) t []
    |> List.sort (fun (_, a) (_, b) -> compare a b)
end

let orphan_response (resp : Engine.response) =
  {
    resp with
    Engine.reply =
      Engine.Error
        (Printf.sprintf "orphaned response (no request slot waiting under id %S)"
           resp.Engine.id);
  }

let unanswered_response ~id =
  {
    Engine.id;
    client = "anon";
    reply = Engine.Error "request produced no response (engine dropped it)";
  }

(* ---------- one-shot batch mode ---------- *)

type batch = { responses : Engine.response list; wall_s : float }

let run_batch engine ~lines =
  let clock = Clock.create () in
  let t0 = Clock.now_us clock in
  let items =
    List.mapi (fun i line -> (i, line)) lines
    |> List.filter (fun (_, line) -> String.trim line <> "")
  in
  let slots : Engine.response option array = Array.make (List.length items) None in
  let waiting = Slot_map.create () in
  List.iteri
    (fun slot (lineno, line) ->
      match decode ~lineno:(lineno + 1) line with
      | Error row -> slots.(slot) <- Some row
      | Ok req -> (
        match Engine.submit engine req with
        | Some resp -> slots.(slot) <- Some resp
        | None -> Slot_map.expect waiting ~id:req.Engine.id ~slot))
    items;
  (* A drained response with no waiting slot is *not* silently dropped:
     it is surfaced as an error row (it can only mean the engine held
     work submitted outside this batch).  Conversely a slot left
     unanswered after the drain becomes an error row too, so
     |responses| >= |items| always — response-count conservation. *)
  let orphans = ref [] in
  List.iter
    (fun (resp : Engine.response) ->
      match Slot_map.resolve waiting ~id:resp.Engine.id with
      | Some slot -> slots.(slot) <- Some resp
      | None -> orphans := orphan_response resp :: !orphans)
    (Engine.drain engine);
  List.iter
    (fun (id, slot) ->
      if slots.(slot) = None then slots.(slot) <- Some (unanswered_response ~id))
    (Slot_map.leftovers waiting);
  let responses =
    Array.to_list
      (Array.map
         (function Some r -> r | None -> unanswered_response ~id:"?")
         slots)
    @ List.rev !orphans
  in
  { responses; wall_s = float_of_int (Clock.elapsed_us clock ~since:t0) /. 1e6 }

(* ---------- warm vs cold ---------- *)

type comparison = {
  cold : batch;
  warm : batch;
  warm_metrics : Metrics.t;
  identical : bool;
  speedup : float;
}

let signature (r : Engine.response) =
  match r.Engine.reply with
  | Engine.Result { result; _ } -> ("ok", result.Job.text)
  | Engine.Shed _ -> ("shed", "")
  | Engine.Error m -> ("error", m)

let compare_cold ?(cache_cap = 512) ~lines () =
  let queue_bound = max 256 (List.length lines) in
  let cold_engine = Engine.create ~queue_bound ~no_cache:true () in
  let warm_engine = Engine.create ~cache_cap ~queue_bound () in
  let cold = run_batch cold_engine ~lines in
  let warm = run_batch warm_engine ~lines in
  let identical =
    List.length cold.responses = List.length warm.responses
    && List.for_all2
         (fun a b -> signature a = signature b)
         cold.responses warm.responses
  in
  let speedup = if warm.wall_s > 0. then cold.wall_s /. warm.wall_s else 0. in
  { cold; warm; warm_metrics = Engine.metrics warm_engine; identical; speedup }
