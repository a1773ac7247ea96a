/* Native program descent for the compiled AP Tree.
 *
 * One exported function, classify_words(), walks the compiled branching
 * program (the same int32/int64 little-endian arrays repro.artifact
 * stores and mmaps) for a batch of headers packed as uint64 words.
 * Per packet the loop is three array reads per node visit:
 *
 *     bit = (words[lane*W + f_word[cur]] >> f_shift[cur]) & 1
 *     cur = f_child[2*cur + bit]
 *
 * until cur sinks below num_sinks, then out[lane] = f_atom[cur].  Total
 * work is the sum of per-packet path lengths -- the information-
 * theoretic floor the batch-vectorized numpy descent can only
 * approximate (it advances every lane each sweep, finished or not).
 *
 * All arguments arrive through the buffer protocol, so the module
 * compiles without numpy headers; the Python-side plumbing in
 * repro.core.kernel guarantees C-contiguity and dtype/width before the
 * call, and the checks here are a defensive second line, not an API.
 * The GIL is released for the duration of the descent.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

static int
get_buffer(PyObject *obj, Py_buffer *view, int writable, const char *name,
           Py_ssize_t itemsize)
{
    int flags = writable ? PyBUF_WRITABLE : PyBUF_SIMPLE;
    if (PyObject_GetBuffer(obj, view, flags) != 0) {
        return -1;
    }
    if (view->itemsize != 0 && view->len % itemsize != 0) {
        PyErr_Format(PyExc_ValueError,
                     "%s: buffer length %zd is not a multiple of %zd",
                     name, view->len, itemsize);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static PyObject *
classify_words(PyObject *self, PyObject *args)
{
    PyObject *words_obj, *fword_obj, *fshift_obj, *fchild_obj, *fatom_obj;
    PyObject *out_obj;
    Py_ssize_t n, width;
    long num_sinks, f_root;

    if (!PyArg_ParseTuple(args, "OnnOOOOllO:classify_words",
                          &words_obj, &n, &width, &fword_obj, &fshift_obj,
                          &fchild_obj, &fatom_obj, &num_sinks, &f_root,
                          &out_obj)) {
        return NULL;
    }
    if (n < 0 || width < 1) {
        PyErr_SetString(PyExc_ValueError, "n must be >= 0 and width >= 1");
        return NULL;
    }

    Py_buffer words, fword, fshift, fchild, fatom, out;
    if (get_buffer(words_obj, &words, 0, "words", 8) != 0) {
        return NULL;
    }
    if (get_buffer(fword_obj, &fword, 0, "f_word", 4) != 0) {
        goto fail_words;
    }
    if (get_buffer(fshift_obj, &fshift, 0, "f_shift", 4) != 0) {
        goto fail_fword;
    }
    if (get_buffer(fchild_obj, &fchild, 0, "f_child", 4) != 0) {
        goto fail_fshift;
    }
    if (get_buffer(fatom_obj, &fatom, 0, "f_atom", 8) != 0) {
        goto fail_fchild;
    }
    if (get_buffer(out_obj, &out, 1, "out", 8) != 0) {
        goto fail_fatom;
    }

    Py_ssize_t size = fword.len / 4;
    if (fshift.len / 4 != size || fchild.len / 8 != size) {
        PyErr_SetString(PyExc_ValueError,
                        "f_word, f_shift, and f_child disagree on the "
                        "program size");
        goto fail_out;
    }
    if (words.len / 8 < n * width) {
        PyErr_SetString(PyExc_ValueError, "words buffer shorter than n*width");
        goto fail_out;
    }
    if (out.len / 8 < n) {
        PyErr_SetString(PyExc_ValueError, "out buffer shorter than n");
        goto fail_out;
    }
    if (num_sinks < 0 || num_sinks > fatom.len / 8 || size < num_sinks) {
        PyErr_SetString(PyExc_ValueError, "num_sinks out of range");
        goto fail_out;
    }
    if (f_root < 0 || f_root >= size) {
        PyErr_SetString(PyExc_ValueError, "f_root out of range");
        goto fail_out;
    }

    /* Validate every edge once up front so the GIL-free loop below can
     * run unchecked: children must land inside the program, and
     * non-sink edges must move strictly forward (the level-order
     * invariant asserted at compile time on the Python side).  O(size)
     * per call; the descent is O(sum of path lengths) >> size. */
    {
        const int32_t *child = (const int32_t *)fchild.buf;
        const int32_t sinks = (int32_t)num_sinks;
        for (Py_ssize_t i = sinks; i < size; i++) {
            int32_t lo = child[2 * i];
            int32_t hi = child[2 * i + 1];
            if (lo < 0 || lo >= size || hi < 0 || hi >= size ||
                (lo >= sinks && lo <= i) || (hi >= sinks && hi <= i)) {
                PyErr_SetString(PyExc_ValueError,
                                "fused program edge out of range or not "
                                "strictly forward");
                goto fail_out;
            }
        }
        const uint32_t *shiftv = (const uint32_t *)fshift.buf;
        const uint32_t *wordv = (const uint32_t *)fword.buf;
        for (Py_ssize_t i = sinks; i < size; i++) {
            if (shiftv[i] > 63 || wordv[i] >= (uint32_t)width) {
                PyErr_SetString(PyExc_ValueError,
                                "f_shift/f_word entry out of range");
                goto fail_out;
            }
        }
    }

    {
        const uint64_t *w = (const uint64_t *)words.buf;
        const int32_t *word_of = (const int32_t *)fword.buf;
        const int32_t *shift_of = (const int32_t *)fshift.buf;
        const int32_t *child = (const int32_t *)fchild.buf;
        const int64_t *atom = (const int64_t *)fatom.buf;
        int64_t *result = (int64_t *)out.buf;
        const int32_t sinks = (int32_t)num_sinks;
        const int32_t root = (int32_t)f_root;

        /* The walk is a dependent-load chain: each step's child fetch
         * must retire before the next can issue, so a lone walk runs at
         * cache latency, not bandwidth.  Interleaving a block of LANES
         * independent walks keeps that many fetches in flight -- lanes
         * that reach a sink early just sit out the remaining sweeps. */
        enum { LANES = 8 };
        Py_BEGIN_ALLOW_THREADS
        if (width == 1) {
            for (Py_ssize_t i = 0; i < n; i += LANES) {
                int m = (n - i) < LANES ? (int)(n - i) : LANES;
                int32_t cur[LANES];
                for (int k = 0; k < m; k++) {
                    cur[k] = root;
                }
                int active = 1;
                while (active) {
                    active = 0;
                    for (int k = 0; k < m; k++) {
                        int32_t c = cur[k];
                        if (c >= sinks) {
                            uint64_t bit = (w[i + k] >> shift_of[c]) & 1u;
                            cur[k] = child[2 * c + (int32_t)bit];
                            active = 1;
                        }
                    }
                }
                for (int k = 0; k < m; k++) {
                    result[i + k] = atom[cur[k]];
                }
            }
        } else {
            for (Py_ssize_t i = 0; i < n; i += LANES) {
                int m = (n - i) < LANES ? (int)(n - i) : LANES;
                int32_t cur[LANES];
                for (int k = 0; k < m; k++) {
                    cur[k] = root;
                }
                int active = 1;
                while (active) {
                    active = 0;
                    for (int k = 0; k < m; k++) {
                        int32_t c = cur[k];
                        if (c >= sinks) {
                            const uint64_t *header =
                                w + (size_t)(i + k) * (size_t)width;
                            uint64_t bit =
                                (header[word_of[c]] >> shift_of[c]) & 1u;
                            cur[k] = child[2 * c + (int32_t)bit];
                            active = 1;
                        }
                    }
                }
                for (int k = 0; k < m; k++) {
                    result[i + k] = atom[cur[k]];
                }
            }
        }
        Py_END_ALLOW_THREADS
    }

    PyBuffer_Release(&out);
    PyBuffer_Release(&fatom);
    PyBuffer_Release(&fchild);
    PyBuffer_Release(&fshift);
    PyBuffer_Release(&fword);
    PyBuffer_Release(&words);
    Py_RETURN_NONE;

fail_out:
    PyBuffer_Release(&out);
fail_fatom:
    PyBuffer_Release(&fatom);
fail_fchild:
    PyBuffer_Release(&fchild);
fail_fshift:
    PyBuffer_Release(&fshift);
fail_fword:
    PyBuffer_Release(&fword);
fail_words:
    PyBuffer_Release(&words);
    return NULL;
}

static PyMethodDef kernel_methods[] = {
    {"classify_words", classify_words, METH_VARARGS,
     "classify_words(words, n, width, f_word, f_shift, f_child, f_atom,\n"
     "               num_sinks, f_root, out)\n\n"
     "Fused-program descent over word-packed headers; fills out[:n] with\n"
     "atom ids.  All array arguments are C-contiguous buffers: words\n"
     "uint64 (n*width), f_word/f_shift/f_child int32, f_atom/out int64."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro._native._kernel",
    "Native fused-program classification kernel (see repro.core.kernel).",
    -1,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
