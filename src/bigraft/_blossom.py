"""Minimum-weight perfect matching on a complete graph with integer weights.

A port of networkx 3.6.1's ``min_weight_matching`` and
``max_weight_matching`` (networkx/algorithms/matching.py).  They implement
Edmonds' blossom method for augmenting paths and his primal-dual method for
the maximum weight, in O(n³), after Z. Galil, "Efficient algorithms for
finding maximum matching in graphs", ACM Computing Surveys 18(1), 1986.

The graph is the complete graph on the vertices 0..t-1 and ``W[v][w]`` is
the integer weight of the edge vw.  That is the graph ``joins`` used to
hand networkx: vertices in the order 0..t-1, each vertex's neighbours every
other index in ascending order, and edges the pairs i < j in lexicographic
order.  The port keeps those orders and every tie-break, so it returns the
pairs networkx returns, pair for pair; the tests check it against networkx.
Where the port departs from the source:

- the state is flat lists indexed by integers, in the layout of Joris van
  Rantwijk's ``mwmatching.py``, from which networkx's code derives.  The
  vertices are 0..t-1 and a non-trivial blossom is an id in t..2t-1,
  taken from a stack of free ids and put back when the blossom is
  expanded, so there is no blossom class and no dict keyed by a blossom;
- ``allowedge`` is a flat t×t bytearray, which each stage resets by one
  copy of t² zero bytes where networkx clears a dict: a list of t² bools
  copied once per stage, about t/2 times, made the kernel Θ(t³) at large t;
- the value -1 stands for no vertex or blossom where networkx has no key
  or ``None`` (``mate``, ``blossomparent``, the ``blossombase`` of a free
  id, the end of a trace), and ``label[b]`` is 0 where networkx has no
  label;
- ``G[v][w]`` reads the flipped weight ``W[v][w]``, ``G.edges(data=True)``
  the pairs i < j, and ``G.neighbors(v)`` all of 0..t-1: v itself lies in
  its own blossom, which every scan skips; the flip 1 + max W - W of
  ``min_weight_matching`` and the largest flipped weight come out of one
  scan of W at set-up;
- ``maxcardinality`` is always True, as ``min_weight_matching`` sets it,
  so the branches for False are gone; there are no self-loops, so their
  checks are gone too;
- slack is computed inline: in the neighbour scan, where v's dual and
  weight row are fixed, and in the least-slack comparisons;
- it keeps every order that can break a tie: neighbours are scanned in
  ascending order, the queue is LIFO, a blossom's leaves come in the order
  of networkx's ``_Blossom.leaves()``, ``bestedgeto`` keeps the order in
  which it first met each blossom, and the loops over ``blossomparent``
  and ``blossomdual`` visit the vertices, then the live blossoms in the
  order they were made (the list ``live``, not id order); the stage-end
  expansion walks a snapshot of ``live`` and skips blossoms expanded
  meanwhile, and the final delta is still ``min(dualvar)``;
- each ``assert`` is an inline test that raises
  ``InternalConsistencyError``, so the checks run under ``python -O`` too.
  networkx's dual certificate ``verifyOptimum`` is the module function
  ``_verify_optimum``, run on every call.  It builds each vertex's blossom
  chain once, not once per edge.
"""

# The code below is derived from networkx, which carries this notice:
#
# NetworkX is distributed with the 3-clause BSD license.
#
#    Copyright (c) 2004-2025, NetworkX Developers
#    Aric Hagberg <hagberg@lanl.gov>
#    Dan Schult <dschult@colgate.edu>
#    Pieter Swart <swart@lanl.gov>
#    All rights reserved.
#
#    Redistribution and use in source and binary forms, with or without
#    modification, are permitted provided that the following conditions are
#    met:
#
#      * Redistributions of source code must retain the above copyright
#        notice, this list of conditions and the following disclaimer.
#
#      * Redistributions in binary form must reproduce the above
#        copyright notice, this list of conditions and the following
#        disclaimer in the documentation and/or other materials provided
#        with the distribution.
#
#      * Neither the name of the NetworkX Developers nor the names of its
#        contributors may be used to endorse or promote products derived
#        from this software without specific prior written permission.
#
#    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

from __future__ import annotations

from itertools import chain

from .core import InternalConsistencyError


def min_weight_matching(W: list[list[int]]) -> list[tuple[int, int]]:
    """A minimum-weight maximum-cardinality matching of the complete graph
    on 0..t-1 weighted by ``W``, as pairs (i, j) with i < j in order of i.

    Each weight w is replaced by 1 + max w - w, which keeps the weights
    positive integers, and the maximum-weight maximum-cardinality matching
    of the result is returned.
    """
    #
    # The algorithm is taken from "Efficient Algorithms for Finding Maximum
    # Matching in Graphs" by Zvi Galil, ACM Computing Surveys, 1986.
    # It is based on the "blossom" method for finding augmenting paths and
    # the "primal-dual" method for finding a matching of maximum weight, both
    # methods invented by Jack Edmonds.
    #
    # A C program for maximum weight matching by Ed Rothberg was used
    # extensively to validate this new code.
    #
    # Many terms used in the code comments are explained in the paper
    # by Galil. You will probably need the paper to make sense of this code.
    #
    t = len(W)
    if t < 2:
        return []

    # Flip the weights.  The largest flipped weight is the flip of the
    # least weight.
    upper = [w for i in range(t - 1) for w in W[i][i + 1:]]
    top = 1 + max(upper)
    maxweight = top - min(upper)
    W = [[top - w for w in row] for row in W]

    # The vertices.  They are also each vertex's neighbours, in ascending
    # order: v itself lies in its own blossom, so every scan skips it.
    vertices = range(t)

    # If v is a matched vertex, mate[v] is its partner vertex.
    # If v is a single vertex, mate[v] is -1.
    # Initially all vertices are single; updated during augmentation.
    mate = [-1] * t

    # If b is a top-level blossom,
    # label[b] is 0 if b is unlabeled (free),
    #             1 if b is an S-blossom,
    #             2 if b is a T-blossom.
    # The label of a vertex is found by looking at the label of its top-level
    # containing blossom.
    # If v is a vertex inside a T-blossom, label[v] is 2 iff v is reachable
    # from an S-vertex outside the blossom.
    # Labels are assigned during a stage and reset after each augmentation.
    label = [0] * (2 * t)

    # If b is a labeled top-level blossom,
    # labeledge[b] = (v, w) is the edge through which b obtained its label
    # such that w is a vertex in b, or None if b's base vertex is single.
    # If w is a vertex inside a T-blossom and label[w] == 2,
    # labeledge[w] = (v, w) is an edge through which w is reachable from
    # outside the blossom.
    labeledge = [None] * (2 * t)

    # If v is a vertex, inblossom[v] is the top-level blossom to which v
    # belongs.
    # If v is a top-level vertex, inblossom[v] == v since v is itself
    # a (trivial) top-level blossom.
    # Initially all vertices are top-level trivial blossoms.
    inblossom = list(vertices)

    # If b is a sub-blossom,
    # blossomparent[b] is its immediate parent (sub-)blossom.
    # If b is a top-level blossom, blossomparent[b] is -1.
    blossomparent = [-1] * (2 * t)

    # If b is a non-trivial (sub-)blossom,
    # blossomchilds[b] is an ordered list of b's sub-blossoms, starting with
    # the base and going round the blossom, and
    # blossomedges[b] is the list of b's connecting edges, such that
    # blossomedges[b][i] = (v, w) where v is a vertex in blossomchilds[b][i]
    # and w is a vertex in blossomchilds[b][wrap(i+1)].
    blossomchilds = [None] * (2 * t)
    blossomedges = [None] * (2 * t)

    # If b is a (sub-)blossom,
    # blossombase[b] is its base VERTEX (i.e. recursive sub-blossom).
    # It is -1 for an id that holds no blossom.
    blossombase = [*vertices] + [-1] * t

    # If w is a free vertex (or an unreached vertex inside a T-blossom),
    # bestedge[w] = (v, w) is the least-slack edge from an S-vertex,
    # or None if there is no such edge.
    # If b is a (possibly trivial) top-level S-blossom,
    # bestedge[b] = (v, w) is the least-slack edge to a different S-blossom
    # (v inside b), or None if there is no such edge.
    # This is used for efficient computation of delta2 and delta3.
    bestedge = [None] * (2 * t)

    # If b is a non-trivial top-level S-blossom,
    # mybestedges[b] is a list of least-slack edges to neighboring
    # S-blossoms, or None if no such list has been computed yet.
    # This is used for efficient computation of delta3.
    mybestedges = [None] * (2 * t)

    # If v is a vertex,
    # dualvar[v] = 2 * u(v) where u(v) is the v's variable in the dual
    # optimization problem (if all edge weights are integers, multiplication
    # by two ensures that all values remain integers throughout the algorithm).
    # Initially, u(v) = maxweight / 2.
    dualvar = [maxweight] * t

    # If b is a non-trivial blossom,
    # blossomdual[b] = z(b) where z(b) is b's variable in the dual
    # optimization problem.
    blossomdual = [0] * (2 * t)

    # If allowedge[v * t + w] (and so allowedge[w * t + v]), the edge
    # (v, w) is known to have zero slack in the optimization problem;
    # otherwise the edge may or may not have zero slack.
    allowedge = bytearray(t * t)

    # Ids free for new blossoms, and the live blossoms in the order they
    # were made: networkx's blossomparent and blossomdual dicts list them
    # in that order, and the delta and dual loops visit them so.
    unusedblossoms = list(range(2 * t - 1, t - 1, -1))
    live = []

    # Queue of newly discovered S-vertices.
    queue = []

    # What each stage resets the state to.
    zeros, nones, unallowed = [0] * (2 * t), [None] * (2 * t), bytes(t * t)

    # Generate the leaf vertices of blossom b, in the order of networkx's
    # _Blossom.leaves().
    def leaves(b):
        out = []
        stack = [*blossomchilds[b]]
        while stack:
            s = stack.pop()
            if s >= t:
                stack.extend(blossomchilds[s])
            else:
                out.append(s)
        return out

    # Assign label lab to the top-level blossom containing vertex w,
    # coming through an edge from vertex v (-1 for none).
    def assignLabel(w, lab, v):
        b = inblossom[w]
        if label[w] != 0 or label[b] != 0:
            raise InternalConsistencyError(
                "assignLabel: the vertex or its blossom is labelled")
        label[w] = label[b] = lab
        if v != -1:
            labeledge[w] = labeledge[b] = (v, w)
        else:
            labeledge[w] = labeledge[b] = None
        bestedge[w] = bestedge[b] = None
        if lab == 1:
            # b became an S-vertex/blossom; add it(s vertices) to the queue.
            if b >= t:
                queue.extend(leaves(b))
            else:
                queue.append(b)
        elif lab == 2:
            # b became a T-vertex/blossom; assign label S to its mate.
            # (If b is a non-trivial blossom, its base is the only vertex
            # with an external mate.)
            base = blossombase[b]
            assignLabel(mate[base], 1, base)

    # Trace back from vertices v and w to discover either a new blossom
    # or an augmenting path. Return the base vertex of the new blossom,
    # or -1 if an augmenting path was found.
    def scanBlossom(v, w):
        # Trace back from v and w, placing breadcrumbs as we go.
        path = []
        base = -1
        while v != -1:
            # Look for a breadcrumb in v's blossom or put a new breadcrumb.
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            if label[b] != 1:
                raise InternalConsistencyError(
                    "scanBlossom: the traced blossom is not an S-blossom")
            path.append(b)
            label[b] = 5
            # Trace one step back.
            if labeledge[b] is None:
                # The base of blossom b is single; stop tracing this path.
                if mate[blossombase[b]] != -1:
                    raise InternalConsistencyError(
                        "scanBlossom: an unlabelled-edge blossom has a matched base")
                v = -1
            else:
                if labeledge[b][0] != mate[blossombase[b]]:
                    raise InternalConsistencyError(
                        "scanBlossom: the label edge does not reach the base's mate")
                v = labeledge[b][0]
                b = inblossom[v]
                if label[b] != 2:
                    raise InternalConsistencyError(
                        "scanBlossom: the mate's blossom is not a T-blossom")
                # b is a T-blossom; trace one more step back.
                v = labeledge[b][0]
            # Swap v and w so that we alternate between both paths.
            if w != -1:
                v, w = w, v
        # Remove breadcrumbs.
        for b in path:
            label[b] = 1
        # Return base vertex, if we found one.
        return base

    # Construct a new blossom with given base, through S-vertices v and w.
    # Label the new blossom as S; set its dual variable to zero;
    # relabel its T-vertices to S and add them to the queue.
    def addBlossom(base, v, w):
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        # Create blossom.
        b = unusedblossoms.pop()
        live.append(b)
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        # Make list of sub-blossoms and their interconnecting edge endpoints.
        blossomchilds[b] = path = []
        blossomedges[b] = edgs = [(v, w)]
        # Trace back from v to base.
        while bv != bb:
            # Add bv to the new blossom.
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            if label[bv] != 2 and (
                    label[bv] != 1 or labeledge[bv][0] != mate[blossombase[bv]]
            ):
                raise InternalConsistencyError(
                    "addBlossom: a sub-blossom on the v side is mislabelled")
            # Trace one step back.
            v = labeledge[bv][0]
            bv = inblossom[v]
        # Add base sub-blossom; reverse lists.
        path.append(bb)
        path.reverse()
        edgs.reverse()
        # Trace back from w to base.
        while bw != bb:
            # Add bw to the new blossom.
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            if label[bw] != 2 and (
                    label[bw] != 1 or labeledge[bw][0] != mate[blossombase[bw]]
            ):
                raise InternalConsistencyError(
                    "addBlossom: a sub-blossom on the w side is mislabelled")
            # Trace one step back.
            w = labeledge[bw][0]
            bw = inblossom[w]
        # Set label to S.
        if label[bb] != 1:
            raise InternalConsistencyError(
                "addBlossom: the base blossom is not an S-blossom")
        label[b] = 1
        labeledge[b] = labeledge[bb]
        # Set dual variable to zero.
        blossomdual[b] = 0
        # Relabel vertices.
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                # This T-vertex now turns into an S-vertex because it becomes
                # part of an S-blossom; add it to the queue.
                queue.append(v)
            inblossom[v] = b
        # Compute mybestedges[b].  bestedgeto[bj] is the least-slack edge
        # to S-blossom bj; order lists each bj as it is first met.
        bestedgeto = [None] * (2 * t)
        order = []
        for bv in path:
            if bv >= t:
                if mybestedges[bv] is not None:
                    # Walk this subblossom's least-slack edges.
                    nblist = mybestedges[bv]
                    # The sub-blossom won't need this data again.
                    mybestedges[bv] = None
                else:
                    # This subblossom does not have a list of least-slack
                    # edges; get the information from the vertices.
                    nblist = [(v, w) for v in leaves(bv) for w in vertices]
            else:
                nblist = [(bv, w) for w in vertices]
            for k in nblist:
                (i, j) = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if bj != b and label[bj] == 1:
                    e = bestedgeto[bj]
                    if e is None:
                        order.append(bj)
                        bestedgeto[bj] = k
                    elif (dualvar[i] + dualvar[j] - 2 * W[i][j]
                          < dualvar[e[0]] + dualvar[e[1]] - 2 * W[e[0]][e[1]]):
                        bestedgeto[bj] = k
            # Forget about least-slack edge of the subblossom.
            bestedge[bv] = None
        mybestedges[b] = [bestedgeto[bj] for bj in order]
        # Select bestedge[b].
        mybestedge = None
        for k in mybestedges[b]:
            i, j = k
            kslack = dualvar[i] + dualvar[j] - 2 * W[i][j]
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    # Expand the given top-level blossom.
    def expandBlossom(b, endstage):
        # This is an obnoxiously complicated recursive function for the sake of
        # a stack-transformation.  So, we hack around the complexity by using
        # a trampoline pattern.  By yielding the arguments to each recursive
        # call, we keep the actual callstack flat.

        def _recurse(b, endstage):
            # Convert sub-blossoms into top-level blossoms.
            for s in blossomchilds[b]:
                blossomparent[s] = -1
                if s >= t:
                    if endstage and blossomdual[s] == 0:
                        # Recursively expand this sub-blossom.
                        yield s
                    else:
                        for v in leaves(s):
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            # If we expand a T-blossom during a stage, its sub-blossoms must be
            # relabeled.
            if (not endstage) and label[b] == 2:
                childs = blossomchilds[b]
                edges = blossomedges[b]
                # Start at the sub-blossom through which the expanding
                # blossom obtained its label, and relabel sub-blossoms untili
                # we reach the base.
                # Figure out through which sub-blossom the expanding blossom
                # obtained its label initially.
                entrychild = inblossom[labeledge[b][1]]
                # Decide in which direction we will go round the blossom.
                j = childs.index(entrychild)
                if j & 1:
                    # Start index is odd; go forward and wrap.
                    j -= len(childs)
                    jstep = 1
                else:
                    # Start index is even; go backward.
                    jstep = -1
                # Move along the blossom until we get to the base.
                v, w = labeledge[b]
                while j != 0:
                    # Relabel the T-sub-blossom.
                    if jstep == 1:
                        p, q = edges[j]
                    else:
                        q, p = edges[j - 1]
                    label[w] = 0
                    label[q] = 0
                    assignLabel(w, 2, v)
                    # Step to the next S-sub-blossom and note its forward edge.
                    allowedge[p * t + q] = allowedge[q * t + p] = True
                    j += jstep
                    if jstep == 1:
                        v, w = edges[j]
                    else:
                        w, v = edges[j - 1]
                    # Step to the next T-sub-blossom.
                    allowedge[v * t + w] = allowedge[w * t + v] = True
                    j += jstep
                # Relabel the base T-sub-blossom WITHOUT stepping through to
                # its mate (so don't call assignLabel).
                bw = childs[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                # Continue along the blossom until we get back to entrychild.
                j += jstep
                while childs[j] != entrychild:
                    # Examine the vertices of the sub-blossom to see whether
                    # it is reachable from a neighboring S-vertex outside the
                    # expanding blossom.
                    bv = childs[j]
                    if label[bv] == 1:
                        # This sub-blossom just got label S through one of its
                        # neighbors; leave it be.
                        j += jstep
                        continue
                    if bv >= t:
                        for v in leaves(bv):
                            if label[v]:
                                break
                    else:
                        v = bv
                    # If the sub-blossom contains a reachable vertex, assign
                    # label T to the sub-blossom.
                    if label[v]:
                        if label[v] != 2:
                            raise InternalConsistencyError(
                                "expandBlossom: a reached vertex is not a T-vertex")
                        if inblossom[v] != bv:
                            raise InternalConsistencyError(
                                "expandBlossom: a reached vertex left its sub-blossom")
                        label[v] = 0
                        label[mate[blossombase[bv]]] = 0
                        assignLabel(v, 2, labeledge[v][0])
                    j += jstep
            # Remove the expanded blossom entirely and free its id.
            label[b] = blossomdual[b] = 0
            labeledge[b] = bestedge[b] = None
            blossombase[b] = -1
            live.remove(b)
            unusedblossoms.append(b)

        # Now, we apply the trampoline pattern.  We simulate a recursive
        # callstack by maintaining a stack of generators, each yielding a
        # sequence of function arguments.  We grow the stack by appending a call
        # to _recurse on each argument tuple, and shrink the stack whenever a
        # generator is exhausted.
        stack = [_recurse(b, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(_recurse(s, endstage))
                break
            else:
                stack.pop()

    # Swap matched/unmatched edges over an alternating path through blossom b
    # between vertex v and the base vertex. Keep blossom bookkeeping
    # consistent.
    def augmentBlossom(b, v):
        # This is an obnoxiously complicated recursive function for the sake of
        # a stack-transformation.  So, we hack around the complexity by using
        # a trampoline pattern.  By yielding the arguments to each recursive
        # call, we keep the actual callstack flat.

        def _recurse(b, v):
            # Bubble up through the blossom tree from vertex v to an immediate
            # sub-blossom of b.
            s = v
            while blossomparent[s] != b:
                s = blossomparent[s]
            # Recursively deal with the first sub-blossom.
            if s >= t:
                yield (s, v)
            # Decide in which direction we will go round the blossom.
            childs = blossomchilds[b]
            edges = blossomedges[b]
            i = j = childs.index(s)
            if i & 1:
                # Start index is odd; go forward and wrap.
                j -= len(childs)
                jstep = 1
            else:
                # Start index is even; go backward.
                jstep = -1
            # Move along the blossom until we get to the base.
            while j != 0:
                # Step to the next sub-blossom and augment it recursively.
                j += jstep
                s = childs[j]
                if jstep == 1:
                    w, x = edges[j]
                else:
                    x, w = edges[j - 1]
                if s >= t:
                    yield (s, w)
                # Step to the next sub-blossom and augment it recursively.
                j += jstep
                s = childs[j]
                if s >= t:
                    yield (s, x)
                # Match the edge connecting those sub-blossoms.
                mate[w] = x
                mate[x] = w
            # Rotate the list of sub-blossoms to put the new base at the front.
            blossomchilds[b] = childs[i:] + childs[:i]
            blossomedges[b] = edges[i:] + edges[:i]
            blossombase[b] = blossombase[childs[i]]
            if blossombase[b] != v:
                raise InternalConsistencyError(
                    "augmentBlossom: the rotated blossom has the wrong base")

        # Now, we apply the trampoline pattern.  We simulate a recursive
        # callstack by maintaining a stack of generators, each yielding a
        # sequence of function arguments.  We grow the stack by appending a call
        # to _recurse on each argument tuple, and shrink the stack whenever a
        # generator is exhausted.
        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    # Swap matched/unmatched edges over an alternating path between two
    # single vertices. The augmenting path runs through S-vertices v and w.
    def augmentMatching(v, w):
        for s, j in ((v, w), (w, v)):
            # Match vertex s to vertex j. Then trace back from s
            # until we find a single vertex, swapping matched and unmatched
            # edges as we go.
            while 1:
                bs = inblossom[s]
                if label[bs] != 1:
                    raise InternalConsistencyError(
                        "augmentMatching: a blossom on the path is not an S-blossom")
                if (labeledge[bs] is not None or mate[blossombase[bs]] != -1) and (
                    labeledge[bs] is None or labeledge[bs][0] != mate[blossombase[bs]]
                ):
                    raise InternalConsistencyError(
                        "augmentMatching: a label edge misses its base's mate")
                # Augment through the S-blossom from s to base.
                if bs >= t:
                    augmentBlossom(bs, s)
                # Update mate[s]
                mate[s] = j
                # Trace one step back.
                if labeledge[bs] is None:
                    # Reached single vertex; stop.
                    break
                u = labeledge[bs][0]
                bt = inblossom[u]
                if label[bt] != 2:
                    raise InternalConsistencyError(
                        "augmentMatching: a blossom on the path is not a T-blossom")
                # Trace one more step back.
                s, j = labeledge[bt]
                # Augment through the T-blossom from j to base.
                if blossombase[bt] != u:
                    raise InternalConsistencyError(
                        "augmentMatching: a T-blossom's base is off the path")
                if bt >= t:
                    augmentBlossom(bt, j)
                # Update mate[j]
                mate[j] = s

    # Main loop: continue until no further improvement is possible.
    while 1:
        # Each iteration of this loop is a "stage".
        # A stage finds an augmenting path and uses that to improve
        # the matching.

        # Remove labels from top-level blossoms/vertices.
        label[:] = zeros
        labeledge[:] = nones

        # Forget all about least-slack edges.
        bestedge[:] = nones
        for b in live:
            mybestedges[b] = None

        # Loss of labeling means that we can not be sure that currently
        # allowable edges remain allowable throughout this stage.
        allowedge[:] = unallowed

        # Make queue empty.
        queue.clear()

        # Label single blossoms/vertices with S and put them in the queue.
        for v in vertices:
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assignLabel(v, 1, -1)

        # Loop until we succeed in augmenting the matching.
        augmented = 0
        while 1:
            # Each iteration of this loop is a "substage".
            # A substage tries to find an augmenting path;
            # if found, the path is used to improve the matching and
            # the stage ends. If there is no augmenting path, the
            # primal-dual method is used to pump some slack out of
            # the dual variables.

            # Continue labeling until all vertices which are reachable
            # through an alternating path have got a label.
            while queue and not augmented:
                # Take an S vertex from the queue.
                v = queue.pop()
                bv = inblossom[v]
                if label[bv] != 1:
                    raise InternalConsistencyError(
                        "the queue holds a vertex outside every S-blossom")

                # Scan its neighbors (v's dual and weights are fixed
                # during the scan, and bv changes only when v joins a
                # new blossom):
                dualv = dualvar[v]
                Wv = W[v]
                row = v * t
                for w in vertices:
                    # w is a neighbor to v
                    bw = inblossom[w]
                    if bv == bw:
                        # this edge is internal to a blossom; ignore it
                        continue
                    if not allowedge[row + w]:
                        kslack = dualv + dualvar[w] - 2 * Wv[w]
                        if kslack > 0:
                            if label[bw] == 1:
                                # keep track of the least-slack non-allowable
                                # edge to a different S-blossom.
                                e = bestedge[bv]
                                if e is None or kslack < (
                                        dualvar[e[0]] + dualvar[e[1]]
                                        - 2 * W[e[0]][e[1]]):
                                    bestedge[bv] = (v, w)
                            elif label[w] == 0:
                                # w is a free vertex (or an unreached vertex
                                # inside a T-blossom) but we can not reach it
                                # yet; keep track of the least-slack edge
                                # that reaches w.
                                e = bestedge[w]
                                if e is None or kslack < (
                                        dualvar[e[0]] + dualvar[e[1]]
                                        - 2 * W[e[0]][e[1]]):
                                    bestedge[w] = (v, w)
                            continue
                        # edge k has zero slack => it is allowable
                        allowedge[row + w] = allowedge[w * t + v] = True
                    if label[bw] == 0:
                        # (C1) w is a free vertex;
                        # label w with T and label its mate with S (R12).
                        assignLabel(w, 2, v)
                    elif label[bw] == 1:
                        # (C2) w is an S-vertex (not in the same blossom);
                        # follow back-links to discover either an
                        # augmenting path or a new blossom.
                        base = scanBlossom(v, w)
                        if base != -1:
                            # Found a new blossom; add it to the blossom
                            # bookkeeping and turn it into an S-blossom.
                            addBlossom(base, v, w)
                            bv = inblossom[v]
                        else:
                            # Found an augmenting path; augment the
                            # matching and end this stage.
                            augmentMatching(v, w)
                            augmented = 1
                            break
                    elif label[w] == 0:
                        # w is inside a T-blossom, but w itself has not
                        # yet been reached from outside the blossom;
                        # mark it as reached (we need this to relabel
                        # during T-blossom expansion).
                        if label[bw] != 2:
                            raise InternalConsistencyError(
                                "a vertex reached inside a blossom has no T label")
                        label[w] = 2
                        labeledge[w] = (v, w)

            if augmented:
                break

            # There is no augmenting path under these constraints;
            # compute delta and reduce slack in the optimization problem.
            # (Note that our vertex dual variables, edge slacks and delta's
            # are pre-multiplied by two.)
            deltatype = -1
            delta = deltaedge = deltablossom = None

            # Compute delta2: the minimum slack on any edge between
            # an S-vertex and a free vertex.
            for v in vertices:
                if label[inblossom[v]] == 0 and bestedge[v] is not None:
                    i, j = bestedge[v]
                    d = dualvar[i] + dualvar[j] - 2 * W[i][j]
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]

            # Compute delta3: half the minimum slack on any edge between
            # a pair of S-blossoms.
            for b in chain(vertices, live):
                if (
                    blossomparent[b] == -1
                    and label[b] == 1
                    and bestedge[b] is not None
                ):
                    i, j = bestedge[b]
                    kslack = dualvar[i] + dualvar[j] - 2 * W[i][j]
                    if kslack % 2:
                        raise InternalConsistencyError(
                            "delta3: the slack between two S-blossoms is odd")
                    d = kslack // 2
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]

            # Compute delta4: minimum z variable of any T-blossom.
            for b in live:
                if (
                    blossomparent[b] == -1
                    and label[b] == 2
                    and (deltatype == -1 or blossomdual[b] < delta)
                ):
                    delta = blossomdual[b]
                    deltatype = 4
                    deltablossom = b

            if deltatype == -1:
                # No further improvement possible; max-cardinality optimum
                # reached. Do a final delta update to make the optimum
                # verifiable.
                deltatype = 1
                delta = max(0, min(dualvar))

            # Update dual variables according to delta.
            for v in vertices:
                if label[inblossom[v]] == 1:
                    # S-vertex: 2*u = 2*u - 2*delta
                    dualvar[v] -= delta
                elif label[inblossom[v]] == 2:
                    # T-vertex: 2*u = 2*u + 2*delta
                    dualvar[v] += delta
            for b in live:
                if blossomparent[b] == -1:
                    if label[b] == 1:
                        # top-level S-blossom: z = z + 2*delta
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        # top-level T-blossom: z = z - 2*delta
                        blossomdual[b] -= delta

            # Take action at the point where minimum delta occurred.
            if deltatype == 1:
                # No further improvement possible; optimum reached.
                break
            elif deltatype == 2:
                # Use the least-slack edge to continue the search.
                (v, w) = deltaedge
                if label[inblossom[v]] != 1:
                    raise InternalConsistencyError(
                        "delta2: the least-slack edge leaves no S-vertex")
                allowedge[v * t + w] = allowedge[w * t + v] = True
                queue.append(v)
            elif deltatype == 3:
                # Use the least-slack edge to continue the search.
                (v, w) = deltaedge
                allowedge[v * t + w] = allowedge[w * t + v] = True
                if label[inblossom[v]] != 1:
                    raise InternalConsistencyError(
                        "delta3: the least-slack edge leaves no S-vertex")
                queue.append(v)
            elif deltatype == 4:
                # Expand the least-z blossom.
                expandBlossom(deltablossom, False)

            # End of a this substage.

        # Paranoia check that the matching is symmetric.
        for v in vertices:
            if mate[v] != -1 and mate[mate[v]] != v:
                raise InternalConsistencyError("the matching is not symmetric")

        # Stop when no more augmenting path can be found.
        if not augmented:
            break

        # End of a stage; expand all S-blossoms which have zero dual.
        for b in live[:]:
            if blossombase[b] == -1:
                continue  # already expanded
            if blossomparent[b] == -1 and label[b] == 1 and blossomdual[b] == 0:
                expandBlossom(b, True)

    # Verify that we reached the optimum solution (only for integer weights).
    _verify_optimum(W, mate, dualvar, blossomparent, blossomdual,
                    blossomedges, live)

    return [(v, w) for v, w in enumerate(mate) if v < w]


def _verify_optimum(W, mate, dualvar, blossomparent, blossomdual,
                    blossomedges, blossoms) -> None:
    """Check that ``mate`` is a maximum-weight maximum-cardinality matching
    of the weights ``W``, certified by the kernel's final duals: networkx's
    ``verifyOptimum``.  The arguments are the kernel's arrays (``mate[v]``
    is -1 for a single vertex, ``blossomparent[b]`` -1 for a top-level
    blossom) and ``blossoms`` lists the live non-trivial blossoms."""
    t = len(W)
    # Vertices may have negative dual;
    # find a constant non-negative number to add to all vertex duals.
    vdualoffset = max(0, -min(dualvar))
    # 0. all dual variables are non-negative
    if min(dualvar) + vdualoffset < 0:
        raise InternalConsistencyError(
            "certificate: a vertex dual is negative")
    if blossoms and min(blossomdual[b] for b in blossoms) < 0:
        raise InternalConsistencyError(
            "certificate: a blossom dual is negative")
    # 0. all edges have non-negative slack and
    # 1. all matched edges have zero slack;
    # Each vertex's chain of blossoms, outermost first.
    chains = []
    for v in range(t):
        vblossoms = [v]
        while blossomparent[vblossoms[-1]] != -1:
            vblossoms.append(blossomparent[vblossoms[-1]])
        vblossoms.reverse()
        chains.append(vblossoms)
    for i in range(t):
        ci, di, Wi, mi = chains[i], dualvar[i], W[i], mate[i]
        for j in range(i + 1, t):
            s = di + dualvar[j] - 2 * Wi[j]
            cj = chains[j]
            # Only vertices of one top-level blossom share blossom duals.
            if ci[0] == cj[0]:
                for bi, bj in zip(ci, cj):
                    if bi != bj:
                        break
                    s += 2 * blossomdual[bi]
            if s < 0:
                raise InternalConsistencyError(
                    "certificate: an edge has negative slack")
            if mi == j or mate[j] == i:
                if mate[i] != j or mate[j] != i:
                    raise InternalConsistencyError(
                        "certificate: the matching is not symmetric")
                if s != 0:
                    raise InternalConsistencyError(
                        "certificate: a matched edge has nonzero slack")
    # 2. all single vertices have zero dual value;
    for v in range(t):
        if mate[v] == -1 and dualvar[v] + vdualoffset != 0:
            raise InternalConsistencyError(
                "certificate: a single vertex has a nonzero dual")
    # 3. all blossoms with positive dual value are full.
    for b in blossoms:
        if blossomdual[b] > 0:
            if len(blossomedges[b]) % 2 != 1:
                raise InternalConsistencyError(
                    "certificate: a blossom has an even number of edges")
            for i, j in blossomedges[b][1::2]:
                if mate[i] != j or mate[j] != i:
                    raise InternalConsistencyError(
                        "certificate: a blossom with a positive dual is not full")
    # Ok.
