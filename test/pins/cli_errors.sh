# Runs m3vsim with arguments it must refuse before its run, and prints
# each command line, all it printed (one stderr line, no stdout) and its
# exit code, then any output file a refused command left behind.  Last
# comes the stderr of a multi-seed chaos sweep, whose per-seed lines come
# in seed order however its workers finish.  m3vsim is on the PATH, and
# soak.ckpt is a chaos checkpoint in the current directory.
for args in "load --drivers 9" "load --duration 0" "fanin --senders 0" \
  "fanin --senders=-1" "migrate --rates 0" "profile fig11 --metrics bad.json" \
  "profile fig6 --rounds 10 --trace /nonexistent/x.json" \
  "profile fig6 --rounds 10 --folded /nonexistent/x.folded" \
  "fig6 --rounds 10 --metrics /nonexistent/m.json" \
  "chaos --resume soak.ckpt --trace t.json"
do
  echo "\$ m3vsim $args"
  m3vsim $args 2>&1
  echo "exit $?"
done
ls bad.json t.json 2>/dev/null
echo "\$ m3vsim chaos --rounds 2 --ops 30 --seeds 3 --jobs 2 >/dev/null"
m3vsim chaos --rounds 2 --ops 30 --seeds 3 --jobs 2 2>&1 >/dev/null
