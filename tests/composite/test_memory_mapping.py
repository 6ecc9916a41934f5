"""The live words' private, demand-zero mapping.

``MemoryImage.words`` is a word view over a private anonymous mapping.
These tests pin the three properties the rest of the simulator relies
on: a forked worker's writes never reach its parent's images (nor the
reverse), the good image is a copy rather than a view of the live
words, and ``free`` zeroes exactly its block.
"""

import mmap
import os
from array import array

import pytest

from repro.composite.memory import INITIAL_ALLOC_PTR, PAGE_WORDS, MemoryImage

BASE = 0x0400_0000
SIZE = 4096

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs os.fork"
)


def _frozen() -> MemoryImage:
    image = MemoryImage(BASE, SIZE)
    addr = image.alloc(8)
    for off in range(8):
        image.write_word(addr + off, 0x1000 + off)
    image.freeze_good_image()
    return image


def test_words_are_one_private_mapping_per_image():
    first, second = MemoryImage(BASE, SIZE), MemoryImage(BASE, SIZE)
    assert isinstance(first.words.obj, mmap.mmap)
    assert first.words.obj is not second.words.obj
    assert first.words.format == "I" and len(first.words) == SIZE
    assert first.words == array("I", bytes(4 * SIZE))


def _fork(child, parent=lambda: None) -> int:
    """Run ``child()`` in a forked child and ``parent()`` here; returns
    the child's exit code (0 when ``child()`` returned True).

    The child blocks until ``parent()`` has returned, so it sees the
    parent's writes if the mapping leaks them.
    """
    go_r, go_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 2
        try:
            os.close(go_w)
            os.read(go_r, 1)
            code = 0 if child() else 1
        finally:
            os._exit(code)
    os.close(go_r)
    try:
        parent()
    finally:
        os.write(go_w, b"g")
        os.close(go_w)
        __, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def _scribble(image: MemoryImage) -> None:
    """Write, free and restore, then dirty one more page."""
    image.write_word(BASE + 3, 0xDEAD)
    image.write_word(BASE + SIZE - 1, 0xBEEF)
    image.free(BASE + INITIAL_ALLOC_PTR, 4)
    image.restore()
    image.write_word(BASE + PAGE_WORDS + 1, 0xF00D)


@needs_fork
def test_child_writes_never_reach_the_parent():
    image = _frozen()
    before = image.words.tobytes()

    def child() -> bool:
        _scribble(image)
        return image.read_word(BASE + PAGE_WORDS + 1) == 0xF00D

    assert _fork(child) == 0
    assert image.words.tobytes() == before
    assert image.is_pristine()


@needs_fork
def test_parent_writes_never_reach_the_child():
    image = _frozen()
    before = image.words.tobytes()

    def child() -> bool:
        return image.words.tobytes() == before

    assert _fork(child, parent=lambda: _scribble(image)) == 0
    assert image.read_word(BASE + PAGE_WORDS + 1) == 0xF00D


def test_good_image_is_a_copy_not_a_view():
    image = _frozen()
    good = {page: words.tobytes() for page, words in image._good_pages.items()}
    assert good, "the frozen block must leave a non-zero good page"
    for index in range(INITIAL_ALLOC_PTR, INITIAL_ALLOC_PTR + 8):
        image.write_word(BASE + index, 0xFFFF_FFFF)
    image.write_word(BASE + 2 * PAGE_WORDS, 0x77)
    assert {
        page: words.tobytes() for page, words in image._good_pages.items()
    } == good
    image.restore()
    assert image.read_word(BASE + INITIAL_ALLOC_PTR) == 0x1000
    assert image.read_word(BASE + 2 * PAGE_WORDS) == 0


@pytest.mark.parametrize("nwords", [8, PAGE_WORDS + 40])
def test_free_zeroes_exactly_its_block_across_a_page_boundary(nwords):
    image = MemoryImage(BASE, SIZE)
    image.freeze_good_image()
    start = PAGE_WORDS - 4  # the block straddles pages 0 and 1 (or more)
    end = start + nwords
    for index in range(start - 2, end + 2):
        image.write_word(BASE + index, 0xA5A5_0000 | index)
    image.freeze_good_image()
    assert image.dirty_page_count == 0

    image.free(BASE + start, nwords)

    for index in range(start - 2, end + 2):
        expected = 0 if start <= index < end else 0xA5A5_0000 | index
        assert image.read_word(BASE + index) == expected, index
    pages = list(range(start // PAGE_WORDS, (end - 1) // PAGE_WORDS + 1))
    assert len(pages) >= 2
    assert image.dirty_page_indices() == pages

