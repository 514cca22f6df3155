(* A single-threaded I/O event loop, either on the calling thread
   ([run]) or on its own domain ([start], via Simkit.Domainx; a system
   thread on the 4.14 fallback). The API is deliberately epoll-shaped
   — register an fd with read/write interest, get a ready callback —
   so the [Unix.select] core can be swapped for real epoll bindings
   without touching callers.

   Threading contract:
   - [wake], [post], and [stop] are safe from any thread.
   - Everything else (add/modify/remove, and all handler state) must
     only be touched from the loop itself, i.e. from inside handler
     callbacks, posted thunks, or the tick hook. The loop owns its fd
     table outright, which is what lets the hot path run lock-free.

   Each iteration: drain the wake pipe, run posted thunks, run the
   owner's [tick] hook (which does deferred work — flushes, connects,
   timers — and returns the next deadline), then select on the
   registered interest set until the deadline or a wake. *)

let src_log = Logs.Src.create "netkit.reactor" ~doc:"select event loop"

module Log = (val Logs.src_log src_log)

type handler = {
  mutable want_read : bool;
  mutable want_write : bool;
  ready : readable:bool -> writable:bool -> unit;
}

type t = {
  mu : Mutex.t; (* guards [posts] only *)
  mutable posts : (unit -> unit) list;
  fds : (Unix.file_descr, handler) Hashtbl.t; (* loop-owned *)
  wake_rd : Unix.file_descr;
  wake_wr : Unix.file_descr;
  wake_pending : bool Atomic.t;
  mutable tick : float -> float option; (* now -> next deadline *)
  mutable stopping : bool;
  mutable domain : unit Simkit.Domainx.t option;
}

(* Safety cap on one select sleep: even with no registered deadline
   the loop revisits its tick at least this often. *)
let max_sleep = 0.5

let create () =
  let wake_rd, wake_wr = Unix.pipe () in
  Unix.set_nonblock wake_rd;
  Unix.set_nonblock wake_wr;
  {
    mu = Mutex.create ();
    posts = [];
    fds = Hashtbl.create 16;
    wake_rd;
    wake_wr;
    wake_pending = Atomic.make false;
    tick = (fun _ -> None);
    stopping = false;
    domain = None;
  }

let set_tick t f = t.tick <- f

let wake t =
  if not (Atomic.exchange t.wake_pending true) then
    try ignore (Unix.write t.wake_wr (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

let post t f =
  Mutex.lock t.mu;
  t.posts <- f :: t.posts;
  Mutex.unlock t.mu;
  wake t

let add t fd ~read ~write ready =
  Hashtbl.replace t.fds fd { want_read = read; want_write = write; ready }

let modify t fd ~read ~write =
  match Hashtbl.find_opt t.fds fd with
  | Some h ->
      h.want_read <- read;
      h.want_write <- write
  | None -> ()

let remove t fd = Hashtbl.remove t.fds fd

(* A registered fd was closed behind the loop's back (a handler bug);
   drop every fd select can no longer stat so the loop survives. *)
let drop_bad_fds t =
  let bad =
    Hashtbl.fold
      (fun fd _ acc ->
        match Unix.fstat fd with
        | _ -> acc
        | exception Unix.Unix_error _ -> fd :: acc)
      t.fds []
  in
  List.iter
    (fun fd ->
      Log.warn (fun m -> m "dropping stale fd from reactor");
      Hashtbl.remove t.fds fd)
    bad

let drain_wake t buf =
  (try
     while Unix.read t.wake_rd buf 0 (Bytes.length buf) > 0 do
       ()
     done
   with Unix.Unix_error _ -> ());
  Atomic.set t.wake_pending false

let run_posts t =
  let ps =
    Mutex.lock t.mu;
    let ps = List.rev t.posts in
    t.posts <- [];
    Mutex.unlock t.mu;
    ps
  in
  List.iter (fun f -> f ()) ps

let rec loop t buf =
  drain_wake t buf;
  run_posts t;
  if not t.stopping then begin
    let now = Unix.gettimeofday () in
    let deadline = t.tick now in
    if t.stopping then ()
    else begin
      let rs = ref [ t.wake_rd ] and ws = ref [] in
      Hashtbl.iter
        (fun fd h ->
          if h.want_read then rs := fd :: !rs;
          if h.want_write then ws := fd :: !ws)
        t.fds;
      let timeout =
        if Atomic.get t.wake_pending then 0.0
        else
          match deadline with
          | None -> max_sleep
          | Some d ->
              Float.max 0.0 (Float.min max_sleep (d -. Unix.gettimeofday ()))
      in
      match Unix.select !rs !ws [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop t buf
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          drop_bad_fds t;
          loop t buf
      | rready, wready, _ ->
          List.iter
            (fun fd ->
              if fd <> t.wake_rd then
                match Hashtbl.find_opt t.fds fd with
                | Some h ->
                    h.ready ~readable:true ~writable:(List.memq fd wready)
                | None -> ())
            rready;
          List.iter
            (fun fd ->
              (* Skip fds already dispatched through the read list. *)
              if not (List.memq fd rready) then
                match Hashtbl.find_opt t.fds fd with
                | Some h -> h.ready ~readable:false ~writable:true
                | None -> ())
            wready;
          loop t buf
    end
  end

(* Run the loop on the calling thread until [stop]; closes the wake
   pipe on the way out. *)
let run t =
  let buf = Bytes.create 256 in
  (try loop t buf
   with e ->
     Log.err (fun m -> m "reactor loop died: %s" (Printexc.to_string e)));
  (try Unix.close t.wake_rd with _ -> ());
  try Unix.close t.wake_wr with _ -> ()

let start t = t.domain <- Some (Simkit.Domainx.spawn (fun () -> run t))

(* Ask the loop to stop, and wait for it to exit if [start] gave it its
   own domain; the caller of [run] joins its own thread. The owner is
   responsible for closing its registered fds (typically from a thunk
   posted just before [stop]). Must not be called from the loop. *)
let stop t =
  post t (fun () -> t.stopping <- true);
  match t.domain with
  | Some d ->
      t.domain <- None;
      Simkit.Domainx.join d
  | None -> ()
