(* MIL analogues of the Starbench parallel benchmark suite (§2.5): image
   processing, information security, machine learning, and media kernels.
   Each program exists in a sequential version and — where the paper profiles
   the pthread version (Fig. 2.10/2.11) — a `-par` variant in which the hot
   loop is split across four MIL threads with explicitly locked shared
   accumulators, exactly the explicit-locking discipline §2.3.4 requires.
   A program and its twin are built by one kernel builder, its
   [par_version] flag choosing the threaded form, so both run the same
   kernel. *)

open Mil.Builder
module R = Registry

let nthreads = 4

let prog name globals funcs = number (program ~entry:"main" name ~globals funcs)

(* A sequential program and its `-par` twin, [funcs size par_version] over
   the same [globals size]. *)
let twins name globals funcs =
  let build suffix par_version size =
    prog (name ^ suffix) (globals size) (funcs size par_version)
  in
  (build "" false, build "-par" true)

(* Split [0, n) into [nthreads] chunks and run [body lo hi] in parallel. *)
let par_chunks n body =
  par
    (List.init nthreads (fun t ->
         let lo = t *$ n /$ nthreads in
         let hi = (t +$ 1) *$ n /$ nthreads in
         body lo hi))

(* The scene and the pixel loop c-ray and ray-rot share: eight random
   spheres, and [fb[p] = trace(p)] over the pixels [lo, hi). *)
let place_spheres () =
  for_ "s" (i 0) (i 8) [ seti "spheres" (v "s") (call "rand" [ i 100 ]) ]

let trace_pixels lo hi =
  for_ "p" (i lo) (i hi) [ seti "fb" (v "p") (call "trace" [ v "p" ]) ]

(* c-ray: ray tracing — every pixel independent; per-pixel sphere loop finds
   the nearest hit (a min-reduction over a local). *)
let cray_funcs n par_version =
  [ func "trace" ~params:[ "px" ]
      [ decl "best" (i 1000000);
        for_ "s" (i 0) (i 8)
          [ decl "d" (call "abs" [ (v "px" * i 7) - ("spheres".%[v "s"] * i 11) ]);
            set "best" (min_ (v "best") (v "d")) ];
        return (v "best") ];
    func "main"
      [ place_spheres ();
        (if par_version then par_chunks n (fun lo hi -> [ trace_pixels lo hi ])
         else trace_pixels 0 n) ] ]

let cray, cray_par =
  twins "c-ray" (fun n -> [ garray "spheres" 8; garray "fb" n ]) cray_funcs

(* kmeans: assign points to nearest centre (DOALL + locked accumulation),
   recompute centres, iterate. *)
let kmeans_funcs n k par_version =
  let assign_body lo hi locked =
    [ for_ "p" (i lo) (i hi)
        [ decl "best" (i 0);
          decl "bestd" (i 1000000);
          for_ "c" (i 0) (i k)
            [ decl "d" (call "abs" [ "points".%[v "p"] - "centres".%[v "c"] ]);
              when_ (v "d" < v "bestd") [ set "bestd" (v "d"); set "best" (v "c") ] ];
          seti "assign" (v "p") (v "best");
          (if locked then lock "m" else set "zero" (i 0));
          seti "csum" (v "best") ("csum".%[v "best"] + "points".%[v "p"]);
          seti "ccount" (v "best") ("ccount".%[v "best"] + i 1);
          (if locked then unlock "m" else set "zero" (i 0)) ] ]
  in
  [ func "main"
      ([ decl "zero" (i 0);
         for_ "p" (i 0) (i n) [ seti "points" (v "p") (call "rand" [ i 1000 ]) ];
         for_ "c" (i 0) (i k) [ seti "centres" (v "c") (call "rand" [ i 1000 ]) ] ]
      @ [ for_ "it" (i 0) (i 5)
            ([ for_ "c" (i 0) (i k)
                 [ seti "csum" (v "c") (i 0); seti "ccount" (v "c") (i 0) ] ]
            @ (if par_version then
                 [ par_chunks n (fun lo hi -> assign_body lo hi true) ]
               else assign_body 0 n false)
            @ [ for_ "c" (i 0) (i k)
                  [ when_ ("ccount".%[v "c"] > i 0)
                      [ seti "centres" (v "c") ("csum".%[v "c"] / "ccount".%[v "c"]) ] ] ]) ])
  ]

let kmeans, kmeans_par =
  twins "kmeans"
    (fun n ->
      [ garray "points" n; garray "centres" 8; garray "csum" 8; garray "ccount" 8;
        garray "assign" n ])
    (fun n -> kmeans_funcs n 8)

(* md5: many independent buffers, each hashed by a sequential round chain. *)
let md5_funcs n bufs par_version =
  let digest_one =
    func "digest" ~params:[ "b" ]
      [ decl "h" (i 0x67452301);
        for_ "r" (i 0) (i n)
          [ set "h"
              ((((v "h" lsl i 3) lxor v "h") + "blocks".%[(v "b" * i n) + v "r"])
              % i 1048576) ];
        return (v "h") ]
  in
  let hash_range lo hi =
    [ for_ "b" (i lo) (i hi) [ seti "digests" (v "b") (call "digest" [ v "b" ]) ] ]
  in
  [ digest_one;
    func "main"
      ([ for_ "x" (i 0) (i (bufs *$ n)) [ seti "blocks" (v "x") (call "rand" [ i 256 ]) ] ]
      @ (if par_version then [ par_chunks bufs hash_range ] else hash_range 0 bufs)) ]

let md5, md5_par =
  twins "md5"
    (fun n -> [ garray "blocks" (n *$ 16); garray "digests" 16 ])
    (fun n -> md5_funcs n 16)

(* rotate: pure index remap, per-pixel independent. *)
let rotate_funcs w h par_version =
  let body lo hi =
    [ for_ "y" (i lo) (i hi)
        [ for_ "x" (i 0) (i w)
            [ seti "dst" ((v "x" * i h) + (i (h -$ 1) - v "y"))
                ("src".%[(v "y" * i w) + v "x"]) ] ] ]
  in
  [ func "main"
      ([ for_ "p" (i 0) (i (w *$ h)) [ seti "src" (v "p") (v "p" % i 256) ] ]
      @ (if par_version then [ par_chunks h body ] else body 0 h)) ]

let rotate, rotate_par =
  twins "rotate"
    (fun n -> [ garray "src" (n *$ n); garray "dst" (n *$ n) ])
    (fun n -> rotate_funcs n n)

(* rgbyuv: colour conversion with global channel accumulators — the Fig 4.7
   loop: element-wise map plus scalar sums that need reduction/locks. *)
let rgbyuv_funcs n par_version =
  let body locked lo hi =
    [ for_ "p" (i lo) (i hi)
        [ decl "r" ("rgb".%[v "p" * i 3]);
          decl "g" ("rgb".%[(v "p" * i 3) + i 1]);
          decl "b" ("rgb".%[(v "p" * i 3) + i 2]);
          decl "yv" (((i 66 * v "r") + (i 129 * v "g") + (i 25 * v "b")) / i 256);
          seti "yout" (v "p") (v "yv");
          seti "uout" (v "p") ((((i 112 * v "b") - (i 74 * v "g")) / i 256) + i 128);
          seti "vout" (v "p") ((((i 112 * v "r") - (i 94 * v "g")) / i 256) + i 128);
          (if locked then lock "m" else set "pad" (i 0));
          set "ysum" (v "ysum" + v "yv");
          (if locked then unlock "m" else set "pad" (i 0)) ] ]
  in
  [ func "main"
      ([ decl "pad" (i 0);
         for_ "x" (i 0) (i (n *$ 3)) [ seti "rgb" (v "x") (call "rand" [ i 256 ]) ] ]
      @ (if par_version then [ par_chunks n (body true) ] else body false 0 n)
      @ [ return (v "ysum") ]) ]

let rgbyuv, rgbyuv_par =
  twins "rgbyuv"
    (fun n ->
      [ garray "rgb" (n *$ 3); garray "yout" n; garray "uout" n; garray "vout" n;
        gscalar "ysum" 0 ])
    rgbyuv_funcs

(* rot-cc: rotate then colour-convert — the three-step barrier structure of
   Fig 3.6. *)
let rotcc size =
  let w = size and h = size in
  let n = w *$ h in
  prog "rot-cc"
    [ garray "src" n; garray "mid" n; garray "yout" n ]
    [ func "main"
        [ for_ "p" (i 0) (i n) [ seti "src" (v "p") (v "p" % i 256) ];
          for_ "y" (i 0) (i h)
            [ for_ "x" (i 0) (i w)
                [ seti "mid" ((v "x" * i h) + (i (h -$ 1) - v "y"))
                    ("src".%[(v "y" * i w) + v "x"]) ] ];
          for_ "p" (i 0) (i n)
            [ seti "yout" (v "p") (((i 66 * "mid".%[v "p"]) + i 4096) / i 256) ] ] ]

(* tinyjpeg: sequential bitstream decode per block, independent IDCT after. *)
let tinyjpeg size =
  let blocks = size and blk = 16 in
  prog "tinyjpeg"
    [ garray "bits" (blocks *$ blk); garray "coef" (blocks *$ blk);
      garray "pix" (blocks *$ blk); gscalar "bitpos" 0 ]
    [ func "main"
        [ for_ "x" (i 0) (i (blocks *$ blk))
            [ seti "bits" (v "x") (call "rand" [ i 64 ]) ];
          (* Huffman-style decode: shared bit cursor makes this a chain *)
          for_ "b" (i 0) (i blocks)
            [ for_ "t" (i 0) (i blk)
                [ decl "code" ("bits".%[v "bitpos" % i (blocks *$ blk)]);
                  seti "coef" ((v "b" * i blk) + v "t") (v "code");
                  set "bitpos" (v "bitpos" + (v "code" % i 3) + i 1) ] ];
          (* IDCT: per-block independent *)
          for_ "b" (i 0) (i blocks)
            [ for_ "t" (i 0) (i blk)
                [ decl "idx" ((v "b" * i blk) + v "t");
                  seti "pix" (v "idx")
                    ((("coef".%[v "idx"] * i 181) + i 128) / i 256) ] ] ] ]

(* ray-rot: c-ray followed by rotate, per-pixel independent throughout. The
   parallel version splits both stages across threads by rows, with a
   barrier at the stage boundary. *)
let rayrot_funcs w h par_version =
  let stages ylo yhi =
    [ trace_pixels (ylo *$ w) (yhi *$ w) ]
    @ (if par_version then [ barrier "stage" ] else [])
    @ [ for_ "y" (i ylo) (i yhi)
          [ for_ "x" (i 0) (i w)
              [ seti "out" ((v "x" * i h) + (i (h -$ 1) - v "y"))
                  ("fb".%[(v "y" * i w) + v "x"]) ] ] ]
  in
  [ func "trace" ~params:[ "px" ]
      [ decl "best" (i 1000000);
        for_ "s" (i 0) (i 8)
          [ set "best"
              (min_ (v "best")
                 (call "abs" [ (v "px" * i 7) - ("spheres".%[v "s"] * i 11) ])) ];
        return (v "best") ];
    func "main"
      (place_spheres ()
      ::
      (if par_version then
         [ par
             (List.init nthreads (fun t ->
                  stages (t *$ h /$ nthreads) ((t +$ 1) *$ h /$ nthreads))) ]
       else stages 0 h)) ]

let rayrot, rayrot_par =
  twins "ray-rot"
    (fun n -> [ garray "spheres" 8; garray "fb" (n *$ n); garray "out" (n *$ n) ])
    (fun n -> rayrot_funcs n n)

(* streamcluster: nearest-centre cost — distance loops reduce into a cost.
   The parallel version gives each thread a point range and a local sum,
   added to the cost under a lock. *)
let streamcluster_funcs n k par_version =
  let scan lo hi acc =
    for_ "p" (i lo) (i hi)
      [ decl "best" (i 1000000);
        for_ "c" (i 0) (i k)
          [ set "best"
              (min_ (v "best") (call "dist" [ "pts".%[v "p"]; "ctr".%[v "c"] ])) ];
        set acc (v acc + v "best") ]
  in
  [ func "dist" ~params:[ "a"; "b" ] [ return (call "abs" [ v "a" - v "b" ]) ];
    func "main"
      ([ for_ "p" (i 0) (i n) [ seti "pts" (v "p") (call "rand" [ i 4096 ]) ];
         for_ "c" (i 0) (i k) [ seti "ctr" (v "c") (call "rand" [ i 4096 ]) ] ]
      @
      if par_version then
        [ par_chunks n (fun lo hi ->
              [ decl "local" (i 0);
                scan lo hi "local";
                lock "m";
                set "cost" (v "cost" + v "local");
                unlock "m" ]) ]
      else [ scan 0 n "cost"; return (v "cost") ]) ]

let streamcluster, streamcluster_par =
  twins "streamcluster"
    (fun n -> [ garray "pts" n; garray "ctr" 6; gscalar "cost" 0 ])
    (fun n -> streamcluster_funcs n 6)

(* bodytrack: per-particle likelihood (DOALL), weight normalisation
   (reduction), sequential resampling. The parallel version computes the
   weights in parallel into a locked weight sum and leaves resampling out. *)
let likelihood () =
  func "likelihood" ~params:[ "x" ]
    [ decl "acc" (i 0);
      for_ "f" (i 0) (i 6)
        [ set "acc" (v "acc" + call "abs" [ (v "x" * v "f") % i 97 ]) ];
      return (v "acc" + i 1) ]

let place_particles n =
  for_ "p" (i 0) (i n) [ seti "particles" (v "p") (call "rand" [ i 1024 ]) ]

let bodytrack n =
  prog "bodytrack"
    [ garray "particles" n; garray "weights" n; garray "resampled" n ]
    [ likelihood ();
      func "main"
        [ place_particles n;
          for_ "p" (i 0) (i n)
            [ seti "weights" (v "p") (call "likelihood" [ "particles".%[v "p"] ]) ];
          decl "wsum" (i 0);
          for_ "p" (i 0) (i n) [ set "wsum" (v "wsum" + "weights".%[v "p"]) ];
          (* systematic resampling: cumulative scan — sequential *)
          decl "cum" (i 0);
          decl "j" (i 0);
          for_ "p" (i 0) (i n)
            [ set "cum" (v "cum" + "weights".%[v "p"]);
              while_ ((v "j" * (v "wsum" / i n)) < v "cum" && v "j" < i n)
                [ seti "resampled" (v "j") ("particles".%[v "p"]);
                  set "j" (v "j" + i 1) ] ] ] ]

let bodytrack_par n =
  prog "bodytrack-par"
    [ garray "particles" n; garray "weights" n; gscalar "wsum" 0 ]
    [ likelihood ();
      func "main"
        [ place_particles n;
          par_chunks n (fun lo hi ->
              [ decl "local" (i 0);
                for_ "p" (i lo) (i hi)
                  [ decl "wt" (call "likelihood" [ "particles".%[v "p"] ]);
                    seti "weights" (v "p") (v "wt");
                    set "local" (v "local" + v "wt") ];
                lock "m";
                set "wsum" (v "wsum" + v "local");
                unlock "m" ]);
          return (v "wsum") ] ]

(* h264dec: intra-prediction over macroblocks — each block depends on its
   left and top neighbours: a wavefront (DOACROSS) structure. The parallel
   version assigns rows round-robin; a barrier per row wave keeps the top
   neighbour available (the wavefront schedule). *)
let h264dec_funcs n par_version =
  let decode_row () =
    for_ "c" (i 0) (i n)
      [ decl "left" (i 128);
        decl "top" (i 128);
        when_ (v "c" > i 0) [ set "left" ("mb".%[(v "r" * i n) + v "c" - i 1]) ];
        when_ (v "r" > i 0) [ set "top" ("mb".%[((v "r" - i 1) * i n) + v "c"]) ];
        seti "mb" ((v "r" * i n) + v "c")
          (((v "left" + v "top") / i 2) + "residual".%[(v "r" * i n) + v "c"]) ]
  in
  [ func "main"
      [ for_ "x" (i 0) (i (n *$ n)) [ seti "residual" (v "x") (call "rand" [ i 64 ]) ];
        (if par_version then
           par
             (List.init nthreads (fun t ->
                  [ for_ "r" (i 0) (i n)
                      [ when_ (v "r" % i nthreads == i t) [ decode_row () ];
                        barrier "wave" ] ]))
         else for_ "r" (i 0) (i n) [ decode_row () ]) ] ]

let h264dec, h264dec_par =
  twins "h264dec"
    (fun n -> [ garray "mb" (n *$ n); garray "residual" (n *$ n) ])
    h264dec_funcs

let all : R.t list =
  [ R.make_workload ~suite:"starbench" ~default_size:1500 "c-ray" cray
      ~expected_loops:[ R.Edoall_reduction; R.Edoall; R.Edoall ];
    R.make_workload ~suite:"starbench" ~default_size:1500 "c-ray-par" cray_par
      ~parallel_target:true;
    (* loops: point fill, centre fill, solver iteration, accumulator reset,
       assignment (array reduction), nearest-centre scan (conditional min —
       not a recognisable reduction), centre update *)
    R.make_workload ~suite:"starbench" ~default_size:600 "kmeans" kmeans
      ~expected_loops:
        [ R.Edoall; R.Edoall; R.Eany; R.Edoall; R.Edoall_reduction; R.Eany;
          R.Edoall ];
    R.make_workload ~suite:"starbench" ~default_size:600 "kmeans-par" kmeans_par
      ~parallel_target:true;
    R.make_workload ~suite:"starbench" ~default_size:120 "md5" md5
      ~expected_loops:[ R.Eseq; R.Edoall; R.Edoall ];
    R.make_workload ~suite:"starbench" ~default_size:120 "md5-par" md5_par
      ~parallel_target:true;
    R.make_workload ~suite:"starbench" ~default_size:42 "rotate" rotate
      ~expected_loops:[ R.Edoall; R.Edoall; R.Edoall ];
    R.make_workload ~suite:"starbench" ~default_size:42 "rotate-par" rotate_par
      ~parallel_target:true;
    R.make_workload ~suite:"starbench" ~default_size:1200 "rgbyuv" rgbyuv
      ~expected_loops:[ R.Edoall; R.Edoall_reduction ];
    R.make_workload ~suite:"starbench" ~default_size:1200 "rgbyuv-par" rgbyuv_par
      ~parallel_target:true;
    R.make_workload ~suite:"starbench" ~default_size:36 "ray-rot" rayrot
      ~expected_loops:[ R.Edoall_reduction; R.Edoall; R.Edoall; R.Edoall; R.Edoall ];
    R.make_workload ~suite:"starbench" ~default_size:24 "ray-rot-par" rayrot_par
      ~parallel_target:true;
    R.make_workload ~suite:"starbench" ~default_size:600 "streamcluster-par"
      streamcluster_par ~parallel_target:true;
    R.make_workload ~suite:"starbench" ~default_size:400 "bodytrack-par"
      bodytrack_par ~parallel_target:true;
    R.make_workload ~suite:"starbench" ~default_size:20 "h264dec-par" h264dec_par
      ~parallel_target:true;
    R.make_workload ~suite:"starbench" ~default_size:40 "rot-cc" rotcc
      ~expected_loops:[ R.Edoall; R.Edoall; R.Edoall; R.Edoall ];
    R.make_workload ~suite:"starbench" ~default_size:800 "streamcluster"
      streamcluster
      ~expected_loops:[ R.Edoall; R.Edoall; R.Edoall_reduction; R.Edoall_reduction ];
    R.make_workload ~suite:"starbench" ~default_size:100 "tinyjpeg" tinyjpeg
      ~expected_loops:[ R.Edoall; R.Eseq; R.Eseq; R.Edoall; R.Edoall ];
    R.make_workload ~suite:"starbench" ~default_size:500 "bodytrack" bodytrack
      ~expected_loops:
        [ R.Edoall_reduction; R.Edoall; R.Edoall; R.Edoall_reduction; R.Eseq; R.Eany ];
    R.make_workload ~suite:"starbench" ~default_size:28 "h264dec" h264dec
      ~expected_loops:[ R.Edoall; R.Eseq; R.Eseq ] ]
